"""Benchmark: fused BPTT kernels vs the autograd tape.

Times one inner-loop training step (forward + full BPTT + gradient
dict + SGD update) of the mobility seq2seq model three ways:

* ``tape``    — the autograd-tape reference of ``tests/tape.py``
  (``tape_forward`` + ``grad_of``);
* ``fused``   — the hand-derived kernels of :mod:`repro.nn.fused`;
* ``batched`` — one stacked fused pass adapting ``workers`` models at
  once (the meta-training fast path), reported per worker.

Shapes cover the pipeline defaults (``PredictionConfig``: hidden 16,
seq_in 5, seq_out 1; ``MAMLConfig``: support batch 16, meta batch 12)
plus the smaller support-subsample batch and a larger model variant.

Writes ``BENCH_nn_fastpath.json`` at the repo root; the committed copy
is the baseline ``benchmarks/check_regression.py`` guards.  Timings
are best-of-N per path; on a shared host the absolute numbers drift
between runs, the tape/fused ratios much less.  Each shape also embeds
per-phase span timings (best / p50 / mean per execution path) so a
regression can be attributed to the phase that actually moved rather
than only to the end-to-end ratio.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.nn import fused
from repro.nn.losses import mse_loss
from repro.nn.optim import apply_gradient_step
from repro.nn.seq2seq import make_mobility_model
from repro.obs.metrics import Histogram

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT))

from tests.tape import Tensor, grad_of, leaves, tape_forward, tape_mse  # noqa: E402

OUTPUT = ROOT / "BENCH_nn_fastpath.json"

COMMON = {"seq_in": 5, "features": 2, "workers": 12, "inner_lr": 0.05}

# name -> (hidden_size, seq_out, batch)
SHAPES = {
    "pipeline_default": (16, 1, 16),
    "support_subsample": (16, 1, 8),
    "large_model": (32, 3, 16),
}

HEADLINE = "pipeline_default"


def _time(fn, repeats: int, warmup: int = 3) -> Histogram:
    """Per-repeat wall times of ``fn``, as an observation histogram."""
    for _ in range(warmup):
        fn()
    timings = Histogram()
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.observe(time.perf_counter() - start)
    return timings


def _phase(timings: Histogram) -> dict:
    """The per-phase span-timing summary embedded in the BENCH JSON."""
    summary = timings.summary()
    return {
        "count": summary["count"],
        "best_s": summary["min"],
        "p50_s": summary["p50"],
        "mean_s": summary["mean"],
    }


def bench_shape(hidden: int, seq_out: int, batch: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    model = make_mobility_model(
        input_size=COMMON["features"], hidden_size=hidden, seq_out=seq_out, rng=rng,
    )
    x = rng.normal(size=(batch, COMMON["seq_in"], COMMON["features"]))
    y = rng.normal(size=(batch, seq_out, COMMON["features"]))
    own = model.params
    lr = COMMON["inner_lr"]

    def tape_step():
        params = leaves(own)
        pred = tape_forward(params, Tensor(x), seq_out)
        grads = grad_of(tape_mse(pred, Tensor(y)), params)
        apply_gradient_step(own, grads, lr)

    def fused_step():
        params = {k: v.copy() for k, v in own.items()}
        _, grads = fused.loss_and_grads(model, params, x, y, mse_loss)
        for name in params:
            params[name] -= lr * grads[name]

    workers = COMMON["workers"]
    xs = [rng.normal(size=(batch, COMMON["seq_in"], COMMON["features"])) for _ in range(workers)]
    ys = [rng.normal(size=(batch, seq_out, COMMON["features"])) for _ in range(workers)]

    def batched_step():
        stacked = {k: np.repeat(v[None, ...], workers, axis=0) for k, v in own.items()}
        _, grads = fused.batched_loss_and_grads(model, stacked, xs, ys, mse_loss)
        for name in stacked:
            stacked[name] -= lr * grads[name]

    tape = _time(tape_step, repeats)
    fused_t = _time(fused_step, repeats)
    batched = _time(batched_step, max(repeats // 2, 10))
    tape_s = tape.summary()["min"]
    fused_s = fused_t.summary()["min"]
    batched_s = batched.summary()["min"]
    per_worker = batched_s / workers
    return {
        "hidden_size": hidden,
        "seq_out": seq_out,
        "batch": batch,
        "timings_s": {
            "tape_step": tape_s,
            "fused_step": fused_s,
            "batched_step_total": batched_s,
            "batched_step_per_worker": per_worker,
        },
        "phases": {
            "tape_step": _phase(tape),
            "fused_step": _phase(fused_t),
            "batched_step": _phase(batched),
        },
        "speedup": {
            "single": tape_s / fused_s,
            "batched": tape_s / per_worker,
        },
    }


def run(repeats: int = 60) -> dict:
    shapes = {name: bench_shape(*dims, repeats) for name, dims in SHAPES.items()}
    return {
        "config": COMMON,
        "headline_shape": HEADLINE,
        "shapes": shapes,
        "speedup": shapes[HEADLINE]["speedup"],
    }


def main() -> None:
    result = run()
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    for name, entry in result["shapes"].items():
        t = entry["timings_s"]
        print(
            f"{name:18s} h={entry['hidden_size']:<3d} so={entry['seq_out']} B={entry['batch']:<3d}"
            f" tape {t['tape_step'] * 1e3:7.3f} ms"
            f" | fused {t['fused_step'] * 1e3:7.3f} ms ({entry['speedup']['single']:.1f}x)"
            f" | batched/worker {t['batched_step_per_worker'] * 1e3:7.3f} ms"
            f" ({entry['speedup']['batched']:.1f}x)"
        )
    print(f"[saved to {OUTPUT}]")


if __name__ == "__main__":
    main()
