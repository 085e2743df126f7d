"""The sweep runner: scenario × policy × scale grids, one manifest per cell.

A :class:`~repro.scenarios.specs.RunSpec` with a ``sweep`` block names
dotted override paths (``scenario.params.n_tasks``,
``policy.trigger.kind``) and the values each takes; the grid is their
cross product.  Every cell re-validates through ``RunSpec.from_dict``
(a sweep cannot smuggle in a key the spec layer would reject), runs
through :func:`repro.scenarios.builders.run_scenario`, and writes one
:class:`repro.obs.RunManifest` whose metrics include the run's
``signature_digest`` — the comparability contract: two cells with equal
digests produced byte-identical assignment outcomes.

Cells are pure functions of their payload, so ``--cell-workers N`` runs
the grid on a pool of N forked processes with bit-identical results to
the inline run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from repro.obs import RunManifest
from repro.obs.decisions import DecisionConfig
from repro.scenarios.builders import run_scenario
from repro.scenarios.specs import RunSpec
from repro.serve.adapters import result_signature


def signature_digest(result) -> str:
    """A stable hex digest of :func:`result_signature`.

    Sets are canonicalised to sorted lists so the digest is a pure
    function of the run outcome, independent of hash seeds.
    """
    signature = result_signature(result)
    signature["completed_task_ids"] = sorted(signature["completed_task_ids"])
    blob = json.dumps(signature, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()


def set_path(doc: dict, path: str, value) -> None:
    """Apply one dotted-path override inside a spec document in place."""
    parts = path.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


#: Prefixes stripped from override paths when deriving cell labels.
_LABEL_PREFIXES = ("scenario.params.", "policy.", "scenario.")


def _short_key(path: str) -> str:
    for prefix in _LABEL_PREFIXES:
        if path.startswith(prefix):
            return path[len(prefix):]
    return path


@dataclass(frozen=True)
class Cell:
    """One grid point: a fully resolved spec plus its identity."""

    index: int
    label: str
    overrides: dict
    spec: RunSpec


def expand_cells(spec: RunSpec, extra_sweep: Mapping | None = None) -> list[Cell]:
    """The sweep grid of a spec, in deterministic axis-major order.

    ``extra_sweep`` (CLI ``--sweep`` axes) merges over the spec's own
    block, a same-path CLI axis replacing the file's.  A spec with no
    axes yields one cell labelled by its name (or ``base``).
    """
    axes = dict(spec.sweep)
    for path, values in (extra_sweep or {}).items():
        if not values:
            raise ValueError(f"sweep axis '{path}' has no values")
        axes[path] = list(values)
    for path in axes:
        if path.split(".", 1)[0] not in ("scenario", "policy"):
            raise ValueError(
                f"sweep axis '{path}' must start with 'scenario.' or 'policy.' "
                "(e.g. scenario.params.n_tasks, policy.index.enabled)"
            )
    base_doc = spec.to_dict()
    base_doc.pop("sweep", None)
    if not axes:
        return [Cell(0, spec.name or "base", {}, RunSpec.from_dict(base_doc))]
    paths = list(axes)
    cells = []
    for index, combo in enumerate(itertools.product(*(axes[p] for p in paths))):
        overrides = dict(zip(paths, combo))
        doc = json.loads(json.dumps(base_doc))  # deep copy, plain types only
        for path, value in overrides.items():
            set_path(doc, path, value)
        label = ",".join(f"{_short_key(p)}={v}" for p, v in overrides.items())
        cells.append(Cell(index, label, overrides, RunSpec.from_dict(doc)))
    return cells


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", label).strip("-") or "cell"


def manifest_path(out_dir: str | Path, cell_index: int, label: str) -> Path:
    return Path(out_dir) / f"cell{cell_index:03d}-{_slug(label)}.manifest.json"


def decisions_path(out_dir: str | Path, cell_index: int, label: str) -> Path:
    """Where a cell's decision log lands (sibling of its manifest)."""
    return Path(out_dir) / f"cell{cell_index:03d}-{_slug(label)}.decisions.jsonl"


def run_cell(payload: dict) -> dict:
    """Run one grid cell; pure payload → summary (pool-safe).

    The payload is plain data (spec document + identity + out dir), so
    the same function runs inline or shipped to a pooled process with
    identical results.
    """
    spec = RunSpec.from_dict(payload["doc"])
    out_dir = payload.get("out_dir")
    decisions = None
    if payload.get("decisions") and out_dir:
        decisions = DecisionConfig(
            path=str(decisions_path(out_dir, payload["index"], payload["label"]))
        )
    t0 = time.perf_counter()
    result = run_scenario(spec.scenario, spec.policy, decisions=decisions)
    wall_s = time.perf_counter() - t0
    digest = signature_digest(result)
    metrics = result.metrics().as_row()
    metrics.update(
        n_expired=float(result.n_expired),
        n_shed=float(result.n_shed),
        n_batches=float(result.n_batches),
        n_early_batches=float(result.n_early_batches),
        candidate_sparsity=result.candidate_sparsity,
        cache_hit_rate=result.cache_hit_rate,
        throughput_tasks_per_s=(result.n_tasks / wall_s) if wall_s > 0 else 0.0,
    )
    summary = {
        "cell": payload["index"],
        "label": payload["label"],
        "signature_digest": digest,
        "wall_s": wall_s,
        "metrics": metrics,
        "manifest": None,
        "decisions": decisions.path if decisions is not None else None,
    }
    if out_dir:
        manifest = RunManifest.start(
            command="scenarios-run",
            argv=payload.get("argv", []),
            config={
                "scenario": spec.scenario.to_dict(),
                "policy": spec.policy.to_dict(),
                "overrides": payload["overrides"],
            },
            seed=spec.scenario.seed,
            labels={
                "sweep": payload.get("sweep_name") or (spec.name or "base"),
                "cell": str(payload["index"]),
                "cell_label": payload["label"],
            },
        )
        path = manifest_path(out_dir, payload["index"], payload["label"])
        manifest.finalize(
            metrics={**metrics, "signature_digest": digest},
            artifacts={"decisions": decisions.path} if decisions is not None else None,
        ).write(path)
        summary["manifest"] = str(path)
    return summary


def run_sweep(
    spec: RunSpec,
    out_dir: str | Path | None = None,
    extra_sweep: Mapping | None = None,
    cell_workers: int = 1,
    argv: Sequence[str] | None = None,
    decisions: bool = False,
) -> list[dict]:
    """Execute every cell of a spec's grid; summaries in grid order.

    ``cell_workers=1`` runs the cells inline; more fans them over a
    ``fork`` pool of that many processes, one cell per task.  Results
    are identical to the inline run because cells are pure and
    ``Pool.map`` returns them in payload order.  ``decisions`` gives
    every cell a decision log next to its manifest (requires
    ``out_dir``), linked through the manifest's ``artifacts`` field so
    ``run-diff`` can join any two cells.
    """
    if cell_workers < 1:
        raise ValueError(f"cell_workers must be at least 1, got {cell_workers}")
    cells = expand_cells(spec, extra_sweep)
    if decisions and out_dir is None:
        raise ValueError("decision logs need an output directory (--out)")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    payloads = [
        {
            "doc": cell.spec.to_dict(),
            "index": cell.index,
            "label": cell.label,
            "overrides": cell.overrides,
            "out_dir": str(out_dir) if out_dir is not None else None,
            "sweep_name": spec.name,
            "argv": list(argv) if argv is not None else [],
            "decisions": bool(decisions),
        }
        for cell in cells
    ]
    if cell_workers == 1 or len(payloads) == 1:
        return [run_cell(p) for p in payloads]
    pool = multiprocessing.get_context("fork").Pool(cell_workers)
    try:
        return pool.map(run_cell, payloads, chunksize=1)
    finally:
        pool.close()
        pool.join()
