"""repro.dist — sharded parallel execution for serving.

Two arms, one invariant (see ``docs/DISTRIBUTED.md``):

* **sharded assignment** (:mod:`repro.dist.shard`) — x-stripe grid
  shards with a Theorem-2 halo rebuild the dense candidate graph
  exactly, and connected-component matching reproduces the global KM
  solves;
* **sharded serve** (:mod:`repro.dist.serve`) — a ``ServeEngine``
  subclass that swaps in the sharded candidate build and stripe-stamped
  decision records without touching the event loop.

Sharded serving runs serial or on long-lived shard servers
(:mod:`repro.dist.server`), whose per-shard telemetry spools are the
only cross-process telemetry; the parity tests swap transports and
compare outputs exactly.  Scenario sweeps fan their cells across a
:class:`~repro.dist.backend.ProcessBackend`.  Meta-training is not
here: TAML trains all its leaf clusters in one lockstep pass
(:func:`repro.meta.maml.meta_train_clusters`).
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
    "make_shards",
    "resolve_backend",
    "serve_shard",
    "sharded_build_candidates",
]
