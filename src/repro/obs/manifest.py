"""Run manifests: what ran, with which config, and what came out.

A manifest is a small JSON document written next to a run's results
(CLI runs, benchmark artefacts) capturing everything needed to
reproduce or audit the run: the command and argv, the configuration
knobs, the seed, the git SHA of the working tree, wall-clock bounds,
and the final metrics.  ``repro.cli`` writes one per traced run;
``benchmarks/common.write_result`` writes one per bench artefact.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The current commit SHA (with ``-dirty`` when the tree differs),
    or ``None`` outside a git checkout / without a git binary."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        return f"{sha}-dirty" if status else sha
    except (OSError, subprocess.SubprocessError):
        return None


@dataclass
class RunManifest:
    """One run's identity card; see module docstring for the fields."""

    command: str
    argv: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int | None = None
    git_sha: str | None = None
    python: str = ""
    platform: str = ""
    started_unix: float = 0.0
    finished_unix: float | None = None
    duration_s: float | None = None
    metrics: dict = field(default_factory=dict)
    trace_path: str | None = None
    #: Where per-process telemetry spools were written (distributed
    #: runs only; see :mod:`repro.obs.dist`).
    spool_dir: str | None = None
    #: Free-form string labels identifying the run within a family
    #: (sweep name, cell index, cell label — see
    #: :mod:`repro.scenarios.sweep`); report tooling groups on these.
    labels: dict = field(default_factory=dict)
    #: Sidecar artifact paths keyed by kind (``trace``, ``series``,
    #: ``openmetrics``, ``spools``, ``decisions``) so ``explain`` /
    #: ``run-diff`` / ``trace-report`` locate their inputs from the
    #: manifest alone instead of globbing the run directory.
    artifacts: dict = field(default_factory=dict)

    @classmethod
    def start(
        cls,
        command: str,
        argv: list[str] | None = None,
        config: dict | None = None,
        seed: int | None = None,
        repo_dir: str | Path | None = None,
        labels: dict | None = None,
    ) -> "RunManifest":
        """A manifest stamped with the environment at run start."""
        return cls(
            command=command,
            argv=list(argv) if argv is not None else [],
            config=dict(config) if config is not None else {},
            seed=seed,
            git_sha=git_sha(repo_dir),
            python=sys.version.split()[0],
            platform=platform.platform(),
            started_unix=time.time(),
            labels=dict(labels) if labels is not None else {},
        )

    def finalize(
        self,
        metrics: dict | None = None,
        trace_path: str | Path | None = None,
        spool_dir: str | Path | None = None,
        artifacts: dict | None = None,
    ) -> "RunManifest":
        """Record the run's outcome; returns self for chaining."""
        self.finished_unix = time.time()
        self.duration_s = self.finished_unix - self.started_unix
        if metrics is not None:
            self.metrics = dict(metrics)
        if trace_path is not None:
            self.trace_path = str(trace_path)
            self.artifacts.setdefault("trace", str(trace_path))
        if spool_dir is not None:
            self.spool_dir = str(spool_dir)
            self.artifacts.setdefault("spools", str(spool_dir))
        if artifacts is not None:
            self.artifacts.update(
                {kind: str(p) for kind, p in artifacts.items() if p is not None}
            )
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def write(self, path: str | Path) -> Path:
        """Serialise to ``path`` as indented JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str) + "\n")
        return path


def read_manifest(path: str | Path) -> RunManifest:
    """Load a manifest written by :meth:`RunManifest.write`.

    A manifest is one JSON document, so unlike the JSONL readers there
    is nothing to salvage from a file truncated mid-write; the failure
    is turned into a :class:`ValueError` naming the file instead of an
    opaque decode traceback.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"manifest at {path} is truncated or corrupt (run killed mid-write?): {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ValueError(f"manifest at {path} is not a JSON object")
    known = {f for f in RunManifest.__dataclass_fields__}
    return RunManifest(**{k: v for k, v in data.items() if k in known})


def manifest_path_for(trace_path: str | Path) -> Path:
    """The manifest path conventionally paired with a trace file:
    ``run.trace.jsonl`` → ``run.manifest.json``."""
    p = Path(trace_path)
    name = p.name
    for suffix in (".trace.jsonl", ".jsonl", ".json"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    return p.with_name(name + ".manifest.json")
