"""repro.dist — sharded parallel execution for serving.

Two arms, one invariant (see ``docs/DISTRIBUTED.md``):

* **sharded assignment** (:mod:`repro.dist.shard`) — x-stripe grid
  shards with a Theorem-2 halo rebuild the dense candidate graph
  exactly, and connected-component matching reproduces the global KM
  solves;
* **sharded serve** (:mod:`repro.dist.serve`) — a ``ServeEngine``
  subclass that swaps in the sharded candidate build and stripe-stamped
  decision records without touching the event loop.

A :class:`~repro.dist.serve.DistConfig` picks the transport: serial
(in process) or long-lived stateless shard servers
(:mod:`repro.dist.server`), which the engine owns as its ``backend`` and whose per-shard telemetry
spools are the only cross-process telemetry; the parity tests swap
transports and compare outputs exactly.  Nothing else here runs in
another process: scenario sweeps own their cell pool
(:func:`repro.scenarios.sweep.run_sweep`), and TAML trains all its leaf
clusters in one lockstep pass
(:func:`repro.meta.maml.meta_train_clusters`).
"""

from repro.dist.serve import DistConfig, ShardedEngine, component_candidate_assign
from repro.dist.server import (
    ShardServerBackend,
    ShardServerError,
    ShardServerHandle,
    serve_shard,
)
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
    "ComponentMatcher",
    "DistConfig",
    "ShardLayout",
    "ShardPlanner",
    "ShardServerBackend",
    "ShardServerError",
    "ShardServerHandle",
    "ShardSpec",
    "ShardStats",
    "ShardedEngine",
    "WarmMatchCache",
    "component_candidate_assign",
    "connected_components",
    "make_shards",
    "serve_shard",
    "sharded_build_candidates",
]
