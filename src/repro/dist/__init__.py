"""repro.dist — sharded parallel execution for training and serving.

Three arms, one invariant (see ``docs/DISTRIBUTED.md``):

* **parallel meta-training** (:mod:`repro.dist.meta`) — leaf clusters of
  the GTMC learning-task tree train independently (every leaf starts
  from the root parameters) and reduce in leaf order, so merged
  parameters are bit-identical at any worker count;
* **sharded assignment** (:mod:`repro.dist.shard`) — x-stripe grid
  shards with a Theorem-2 halo rebuild the dense candidate graph
  exactly, and connected-component matching reproduces the global KM
  solves;
* **sharded serve** (:mod:`repro.dist.serve`) — a ``ServeEngine``
  subclass that swaps in the sharded candidate build and stripe-stamped
  decision records without touching the event loop.

Meta-training runs on a :class:`~repro.dist.backend.Backend` — serial
by default (zero behavior change), or a ``multiprocessing`` pool —
and sharded serving runs serial or on long-lived shard servers
(:mod:`repro.dist.server`), whose per-shard telemetry spools are the
only cross-process telemetry; the parity tests swap backends and
compare outputs exactly.
"""

from repro.dist.backend import (
    Backend,
    DistConfig,
    ProcessBackend,
    SerialBackend,
    ShardServerBackend,
    available_cpus,
    resolve_backend,
)
from repro.dist.meta import LeafJob, dist_taml_train, run_leaf_job
from repro.dist.serve import ShardedEngine, component_candidate_assign
from repro.dist.server import ShardServerError, ShardServerHandle, serve_shard
from repro.dist.shard import (
    ComponentMatcher,
    ShardLayout,
    ShardPlanner,
    ShardSpec,
    ShardStats,
    WarmMatchCache,
    connected_components,
    make_shards,
    sharded_build_candidates,
)

__all__ = [
    "Backend",
    "ComponentMatcher",
    "DistConfig",
    "LeafJob",
    "ProcessBackend",
    "SerialBackend",
    "ShardLayout",
    "ShardPlanner",
    "ShardServerBackend",
    "ShardServerError",
    "ShardServerHandle",
    "ShardSpec",
    "ShardStats",
    "ShardedEngine",
    "WarmMatchCache",
    "available_cpus",
    "component_candidate_assign",
    "connected_components",
    "dist_taml_train",
    "make_shards",
    "resolve_backend",
    "run_leaf_job",
    "serve_shard",
    "sharded_build_candidates",
]
