"""Maintenance utilities shared across the repo's tooling layers.

:func:`collect_results` (``python -m repro.cli collect-results``)
stitches every ``benchmarks/results/*.txt`` artefact into
``benchmarks/RESULTS.md`` in the experiment order of DESIGN.md §4, so a
full bench run leaves a single reviewable document.

:func:`check_keys` / :func:`dataclass_from_mapping` are the one shared
gate through which every mapping-shaped config (scenario specs, policy
blocks, pipeline configs loaded from YAML/JSON) is validated: an
unknown key fails with a :class:`ValueError` naming the offending key
*and* the allowed keys, instead of an opaque ``TypeError`` from a
dataclass constructor three frames down.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

T = TypeVar("T")


def check_keys(owner: str, data: Mapping, allowed: Sequence[str]) -> None:
    """Reject unknown keys with a message naming key and allowed set.

    ``owner`` names the block being validated (e.g. ``"policy.trigger"``)
    so the error localises itself inside a nested document.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{owner} must be a mapping, got {type(data).__name__}")
    for key in data:
        if key not in allowed:
            raise ValueError(
                f"unknown key '{key}' in {owner} "
                f"(allowed: {', '.join(allowed)})"
            )


def dataclass_from_mapping(cls: type[T], data: Mapping, owner: str | None = None) -> T:
    """Build dataclass ``cls`` from a mapping, rejecting unknown keys.

    The constructor still runs the dataclass's own ``__post_init__``
    validation, so value errors keep their domain-specific messages;
    this helper only upgrades the *key* errors.
    """
    if not is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    allowed = [f.name for f in fields(cls) if f.init]
    check_keys(owner or cls.__name__, data, allowed)
    return cls(**dict(data))

#: Display order: paper tables, paper figures, then the extras.
RESULT_ORDER = (
    "table4_cluster_ablation",
    "table5_seq_porto",
    "table6_cluster_ablation_gowalla",
    "table7_seq_gowalla",
    "fig6_detour_porto",
    "fig7_tasks_porto",
    "fig8_validtime_porto",
    "fig9_detour_gowalla",
    "fig10_tasks_gowalla",
    "fig11_validtime_gowalla",
    "newcomer_cold_start",
    "ablation_gamma",
    "ablation_epsilon",
    "ablation_outer_update",
    "ablation_loss_kappa",
    "scaling_hungarian",
    "scaling_best_response",
    "scaling_ppi",
    "micro_wasserstein",
)


def collect_results(results_dir: Path, output: Path) -> list[str]:
    """Assemble the artefacts; returns the names included, in order.

    Unknown artefacts (not in :data:`RESULT_ORDER`) are appended at the
    end alphabetically so nothing a bench wrote is silently dropped.
    """
    if not results_dir.is_dir():
        raise FileNotFoundError(f"no results directory at {results_dir}; run the benches first")
    available = {p.stem: p for p in sorted(results_dir.glob("*.txt"))}
    ordered = [name for name in RESULT_ORDER if name in available]
    ordered += [name for name in sorted(available) if name not in RESULT_ORDER]

    blocks = ["# Benchmark results\n"]
    blocks.append(
        "Regenerated by `pytest benchmarks/ --benchmark-only`; see "
        "`EXPERIMENTS.md` for the paper-vs-measured analysis.\n"
    )
    for name in ordered:
        blocks.append(f"## {name}\n")
        blocks.append("```")
        blocks.append(available[name].read_text().rstrip())
        blocks.append("```\n")
    output.write_text("\n".join(blocks))
    return ordered
