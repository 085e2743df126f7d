"""Shared infrastructure for the benchmark harness.

Every bench regenerates one of the paper's tables or figures as a
plain-text artefact under ``benchmarks/results/`` and also prints it.
``REPRO_BENCH_SCALE`` (float, default 1) grows the worker/task
populations toward paper scale; the defaults finish in CPU minutes.

Each artefact is accompanied by a run manifest
(``results/<name>.manifest.json``: bench scale, git SHA, timing) so a
results directory is self-describing; set ``REPRO_BENCH_TRACE=1`` to
additionally record a JSONL span trace per bench artefact, readable
with ``python -m repro.cli trace-report``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import obs
from repro.meta.maml import MAMLConfig
from repro.obs import JsonlSink, RunManifest
from repro.pipeline.config import AssignmentConfig, PredictionConfig

RESULTS_DIR = Path(__file__).parent / "results"


def bench_scale() -> float:
    """Population multiplier from the environment."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_SCALE must be a number, got '{raw}'") from exc
    if scale <= 0:
        raise ValueError("REPRO_BENCH_SCALE must be positive")
    return scale


def scaled(base: int, minimum: int = 1) -> int:
    """Scale an integer population knob."""
    return max(int(round(base * bench_scale())), minimum)


def available_cpus() -> int:
    """Usable CPU count (affinity-aware where the platform exposes it)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def write_result(name: str, text: str, metrics: dict | None = None) -> Path:
    """Persist a rendered table/series and echo it to stdout.

    Also drops a run manifest next to the artefact so every results
    directory records which commit, scale, and environment produced it.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    manifest = RunManifest.start(
        command=f"bench:{name}",
        config={"scale": bench_scale()},
        repo_dir=Path(__file__).parent.parent,
    )
    manifest.finalize(metrics=metrics or {}).write(RESULTS_DIR / f"{name}.manifest.json")
    print(f"\n{text}\n[saved to {path}]")
    return path


@contextmanager
def bench_trace(name: str):
    """Optionally record a bench run's spans (``REPRO_BENCH_TRACE=1``).

    Yields the trace path (or ``None`` when tracing is off); the trace
    lands next to the bench's artefact as ``<name>.trace.jsonl``.
    """
    if os.environ.get("REPRO_BENCH_TRACE", "").strip() in ("", "0"):
        yield None
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    trace_path = RESULTS_DIR / f"{name}.trace.jsonl"
    with obs.recording(JsonlSink(trace_path)):
        yield trace_path


def fewshot_prediction_config(
    algorithm: str,
    loss: str = "mse",
    seq_in: int = 5,
    seq_out: int = 1,
    seed: int = 1,
) -> PredictionConfig:
    """The few-shot regime of the prediction tables (IV-VII).

    Short SGD adaptation makes initialisation quality — the thing the
    meta-learners differ in — the dominant factor, mirroring the
    paper's evaluation of newly arrived / data-poor workers.
    """
    return PredictionConfig(
        algorithm=algorithm,
        loss=loss,
        seq_in=seq_in,
        seq_out=seq_out,
        hidden_size=16,
        mr_threshold_km=0.3,
        seed=seed,
        fine_tune_optimizer="sgd",
        fine_tune_steps=5,
        fine_tune_lr=0.1,
        maml=MAMLConfig(iterations=25, meta_batch=4, inner_steps=3, support_batch=16),
    )


def assignment_prediction_config(
    loss: str,
    algorithm: str = "gttaml",
    seed: int = 1,
) -> PredictionConfig:
    """The converged regime of the assignment figures (6-11).

    Longer Adam adaptation gives each worker their best personal model;
    the figures compare *assignment algorithms*, so prediction quality
    is held at its per-worker ceiling.
    """
    return PredictionConfig(
        algorithm=algorithm,
        loss=loss,
        hidden_size=16,
        mr_threshold_km=0.3,
        seed=seed,
        fine_tune_optimizer="adam",
        fine_tune_steps=60,
        fine_tune_lr=0.01,
        maml=MAMLConfig(iterations=10, meta_batch=4, inner_steps=2, support_batch=12),
    )


def default_assignment_config(**overrides) -> AssignmentConfig:
    return AssignmentConfig(**overrides)


def metric_series() -> list[tuple[str, str]]:
    """The four panels of every assignment figure."""
    return [
        ("completion_ratio", "completion rate"),
        ("rejection_ratio", "rejection rate"),
        ("worker_cost_km", "worker cost (km)"),
        ("running_seconds", "running time (s)"),
    ]


def seeded_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)
