"""OpenMetrics / Prometheus text exposition of a metrics snapshot.

Turns :meth:`repro.obs.metrics.MetricsRegistry.snapshot` output into
the OpenMetrics text format, so an external scraper (Prometheus, a
``curl`` in a terminal, a Grafana agent) can watch a live run:

* counters become ``<name>_total`` with ``# TYPE ... counter``;
* gauges are exposed verbatim with ``# TYPE ... gauge``;
* histograms are exposed as OpenMetrics *summaries*: ``quantile``
  labels for p50/p90/p99 plus ``_count`` and ``_sum`` series.

Dotted metric names (``serve.queue.pending``) are sanitised to the
``[a-zA-Z_][a-zA-Z0-9_]*`` charset with an optional namespace prefix
(``repro_serve_queue_pending``).  Label-style names
(``dist.shard.pairs{shard=3}``, see
:func:`repro.obs.metrics.labelled`) are grouped into one family per
base name with proper OpenMetrics labels — ``repro_dist_shard_pairs``
gets one ``{shard="3"}`` series per shard instead of one metric family
per shard, keeping the exposition's family count independent of the
shard count.  Two targets are provided: an
atomically rewritten file (for ``node_exporter``-style textfile
collection) and a tiny stdlib :mod:`http.server` endpoint serving the
latest exposition at ``/metrics``.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from repro.obs.metrics import split_labels

CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")
_QUANTILES = (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99"))


def metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitise a dotted metric path into an OpenMetrics name."""
    flat = _NAME_OK.sub("_", name)
    if prefix:
        flat = f"{_NAME_OK.sub('_', prefix)}_{flat}"
    if not flat or not (flat[0].isalpha() or flat[0] == "_"):
        flat = f"_{flat}"
    return flat


def _fmt(value: float) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(labels: dict[str, str], extra: tuple[str, str] | None = None) -> str:
    """Render an OpenMetrics label set (empty string when unlabelled)."""
    items = list(labels.items())
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{_NAME_OK.sub("_", key)}="{value}"' for key, value in items)
    return "{" + body + "}"


def _families(metrics: dict) -> dict[str, list[tuple[dict[str, str], object]]]:
    """Group metrics by base name, splitting label-style suffixes.

    Input iteration is over the sorted full names, so each family's
    series list arrives label-sorted and the render stays byte-stable.
    """
    families: dict[str, list[tuple[dict[str, str], object]]] = {}
    for name, value in sorted(metrics.items()):
        base, labels = split_labels(name)
        families.setdefault(base, []).append((labels, value))
    return families


def render_openmetrics(snapshot: dict, prefix: str = "repro") -> str:
    """The OpenMetrics text document for one registry snapshot.

    ``snapshot`` is the dict produced by ``MetricsRegistry.snapshot()``
    (``counters`` / ``gauges`` / ``histograms`` keys, each optional).
    Families are emitted in sorted-name order so two snapshots of the
    same state render byte-identically; label-style names collapse into
    one family with one labelled series per label set.
    """
    lines: list[str] = []
    for base, series in sorted(_families(snapshot.get("counters", {})).items()):
        flat = metric_name(base, prefix)
        lines.append(f"# TYPE {flat} counter")
        for labels, value in series:
            lines.append(f"{flat}_total{_label_text(labels)} {_fmt(value)}")
    for base, series in sorted(_families(snapshot.get("gauges", {})).items()):
        flat = metric_name(base, prefix)
        lines.append(f"# TYPE {flat} gauge")
        for labels, value in series:
            lines.append(f"{flat}{_label_text(labels)} {_fmt(value)}")
    for base, series in sorted(_families(snapshot.get("histograms", {})).items()):
        flat = metric_name(base, prefix)
        lines.append(f"# TYPE {flat} summary")
        for labels, summary in series:
            for quantile, key in _QUANTILES:
                if key in summary:
                    lines.append(
                        f"{flat}{_label_text(labels, ('quantile', quantile))} "
                        f"{_fmt(summary[key])}"
                    )
            lines.append(f"{flat}_count{_label_text(labels)} {_fmt(summary.get('count', 0))}")
            lines.append(f"{flat}_sum{_label_text(labels)} {_fmt(summary.get('sum', 0.0))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(path: str | Path, snapshot: dict, prefix: str = "repro") -> Path:
    """Atomically (re)write the exposition file for ``snapshot``.

    Written to a sibling temp file and renamed into place, so a scraper
    reading mid-update never sees a half-written document.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(render_openmetrics(snapshot, prefix=prefix))
    tmp.replace(path)
    return path


class _Handler(BaseHTTPRequestHandler):
    server: "ExpositionServer"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?")[0] not in ("/metrics", "/"):
            self.send_error(404)
            return
        body = self.server.latest().encode()
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args) -> None:  # silence per-request stderr
        pass


class ExpositionServer(ThreadingHTTPServer):
    """Serve the latest exposition text at ``http://host:port/metrics``.

    The monitor calls :meth:`publish` with each new document; requests
    are answered from that cached text on a daemon thread, so a slow or
    absent scraper never blocks the run.  Port ``0`` binds an ephemeral
    port (see :attr:`port` after construction).
    """

    daemon_threads = True

    def __init__(self, port: int = 0, host: str = "127.0.0.1") -> None:
        super().__init__((host, port), _Handler)
        self._lock = threading.Lock()
        self._text = "# EOF\n"
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def publish(self, text: str) -> None:
        with self._lock:
            self._text = text

    def latest(self) -> str:
        with self._lock:
            return self._text

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=5.0)
