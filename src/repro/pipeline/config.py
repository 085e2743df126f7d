"""Experiment configuration objects.

Mirrors Table III's parameter grid: ``seq_in``/``seq_out`` for the
predictors; detour, task count, and valid time for assignment; plus
the hyper-parameters Section IV fixes (2-minute batch window,
``gamma = 0.2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.meta.gtmc import GTMCConfig
from repro.meta.maml import MAMLConfig
from repro.tools import check_keys, dataclass_from_mapping


@dataclass(frozen=True)
class PredictionConfig:
    """Offline-stage knobs.

    Attributes
    ----------
    algorithm:
        ``"maml"``, ``"ctml"``, ``"gttaml"``, or ``"gttaml_gt"``.
    loss:
        ``"mse"`` (the *-loss* variants) or ``"task_oriented"``.
    seq_in / seq_out:
        Input/output window lengths (Table III: defaults 5 and 1).
    hidden_size:
        LSTM width of the encoder-decoder.
    fine_tune_steps:
        Per-worker adaptation steps from the selected initialisation.
        ``fine_tune_optimizer`` picks plain SGD (the few-shot regime
        that separates the meta-learners, used by the Table IV/V
        benches) or Adam (longer adaptation for the assignment
        experiments, where online prediction quality matters).
    probe_steps:
        Inner steps used to record learning paths for ``Sim_l``.
    mr_threshold_km:
        The matching-rate distance threshold ``a`` (Def. 7).
    """

    algorithm: str = "gttaml"
    loss: str = "task_oriented"
    seq_in: int = 5
    seq_out: int = 1
    hidden_size: int = 16
    fine_tune_steps: int = 40
    fine_tune_lr: float = 0.01
    fine_tune_optimizer: str = "adam"
    probe_steps: int = 3
    probe_lr: float = 0.1
    mr_threshold_km: float = 0.3
    seed: int = 0
    maml: MAMLConfig = field(default_factory=lambda: MAMLConfig(iterations=20))
    gtmc: GTMCConfig = field(default_factory=GTMCConfig)
    ctml_clusters: int = 3
    loss_d_q_km: float = 1.0
    loss_kappa: float = 0.5
    loss_delta: float = 0.5

    _ALGORITHMS = ("maml", "ctml", "gttaml", "gttaml_gt")
    _LOSSES = ("mse", "task_oriented")

    def __post_init__(self) -> None:
        if self.algorithm not in self._ALGORITHMS:
            raise ValueError(f"algorithm must be one of {self._ALGORITHMS}")
        if self.loss not in self._LOSSES:
            raise ValueError(f"loss must be one of {self._LOSSES}")
        if self.seq_in < 1 or self.seq_out < 1:
            raise ValueError("sequence lengths must be positive")
        if self.mr_threshold_km < 0:
            raise ValueError("mr_threshold_km must be non-negative")
        if self.fine_tune_optimizer not in ("sgd", "adam"):
            raise ValueError("fine_tune_optimizer must be 'sgd' or 'adam'")
        for name in ("loss_d_q_km", "loss_delta", "fine_tune_lr", "probe_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0.0 < self.loss_kappa < 1.0:
            raise ValueError(f"loss_kappa must lie in (0, 1), got {self.loss_kappa!r}")
        for name, least in (("fine_tune_steps", 0), ("probe_steps", 1), ("hidden_size", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")

    @classmethod
    def from_dict(cls, data: Mapping, owner: str = "prediction") -> "PredictionConfig":
        """Build from a plain mapping; unknown keys fail naming themselves.

        Nested blocks (``maml``, ``gtmc``) may be given as mappings and
        are validated against their own config dataclasses.
        """
        data = dict(data)
        for name, block_cls in (("maml", MAMLConfig), ("gtmc", GTMCConfig)):
            if isinstance(data.get(name), Mapping):
                data[name] = dataclass_from_mapping(
                    block_cls, data[name], owner=f"{owner}.{name}"
                )
        return dataclass_from_mapping(cls, data, owner=owner)


@dataclass(frozen=True)
class AssignmentConfig:
    """Online-stage knobs.

    ``horizon_points`` is how many future points the predictor rolls
    out for each batch snapshot; with a 10-minute sample step and the
    paper's [3, 4]-unit valid times, 6 points cover every reachable
    deadline.  ``assignment_window`` is how long a requester waits for
    a match before cancelling (see
    :class:`repro.serve.engine.ServeConfig`).  PPI's threshold ``a`` is
    not set here: it is the predictor's ``mr_threshold_km``, the one MR
    was measured at, without which Theorem 2 does not hold.
    """

    batch_window: float = 2.0
    horizon_points: int = 6
    ppi_epsilon: int = 8
    assignment_window: float | None = 6.0

    def __post_init__(self) -> None:
        if self.batch_window <= 0:
            raise ValueError("batch window must be positive")
        if self.horizon_points < 1:
            raise ValueError("need at least one horizon point")
        if self.assignment_window is not None and self.assignment_window <= 0:
            raise ValueError("assignment window must be positive (or None)")

    @classmethod
    def from_dict(cls, data: Mapping, owner: str = "assignment") -> "AssignmentConfig":
        return dataclass_from_mapping(cls, data, owner=owner)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: prediction + assignment settings."""

    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    assignment: AssignmentConfig = field(default_factory=AssignmentConfig)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentConfig":
        check_keys("experiment", data, ["prediction", "assignment"])
        return cls(
            prediction=PredictionConfig.from_dict(data.get("prediction", {})),
            assignment=AssignmentConfig.from_dict(data.get("assignment", {})),
        )
