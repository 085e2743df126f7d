"""Gradient checks for the fused BPTT kernels against the autograd tape.

Every fused kernel in :mod:`repro.nn.fused` is compared against the
tape reference (``tests/tape.py``) at ``rtol=1e-6`` (forward values are bit-exact by
construction; gradients differ only in summation order), plus a
central-difference check that catches errors the two analytic paths
could share.
"""

import numpy as np
import pytest

from repro.nn import fused
from repro.nn.losses import TaskDensityWeighter, mae_loss, mse_loss
from repro.nn.seq2seq import make_mobility_model
from tests.tape import Tensor, leaves, tape_forward, tape_loss_and_grads

RTOL = 1e-6
ATOL = 1e-9


def assert_grads_close(fused_grads, tape_grads, rtol=RTOL, atol=ATOL):
    assert set(fused_grads) == set(tape_grads)
    for name in tape_grads:
        np.testing.assert_allclose(
            fused_grads[name], tape_grads[name], rtol=rtol, atol=atol, err_msg=name
        )


class TestSeq2SeqKernels:
    """Fused encoder-decoder loss_and_grads vs the tape, all decode modes."""

    @pytest.mark.parametrize("seq_out", [1, 3])
    @pytest.mark.parametrize("teacher_forcing", [False, True])
    def test_matches_tape(self, seq_out, teacher_forcing):
        rng = np.random.default_rng(17)
        model = make_mobility_model(hidden_size=7, seq_out=seq_out, rng=rng)
        x = rng.normal(size=(5, 4, 2))
        y = rng.normal(size=(5, seq_out, 2))

        ref_loss, ref_grads = tape_loss_and_grads(model, model.params, x, y, mse_loss, teacher_forcing)
        loss, grads = fused.loss_and_grads(
            model, model.params, x, y, mse_loss, teacher_forcing=teacher_forcing
        )
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_grads_close(grads, ref_grads)

    @pytest.mark.parametrize(
        "loss_fn",
        [mse_loss, mae_loss, TaskDensityWeighter(np.array([[0.1, 0.2], [0.8, 0.9]])).loss],
        ids=["mse", "mae", "weighted_mse"],
    )
    def test_loss_functions(self, loss_fn):
        rng = np.random.default_rng(19)
        model = make_mobility_model(hidden_size=6, seq_out=2, rng=rng)
        x = rng.uniform(size=(4, 3, 2))
        y = rng.uniform(size=(4, 2, 2))
        ref_loss, ref_grads = tape_loss_and_grads(model, model.params, x, y, loss_fn)
        loss, grads = fused.loss_and_grads(model, model.params, x, y, loss_fn)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_grads_close(grads, ref_grads)

    def test_finite_differences(self):
        """Central differences on random parameter entries — independent of
        the tape, catches errors both analytic paths could share."""
        rng = np.random.default_rng(23)
        model = make_mobility_model(hidden_size=4, seq_out=2, rng=rng)
        x = rng.normal(size=(3, 3, 2))
        y = rng.normal(size=(3, 2, 2))
        params = model.state_dict()
        _, grads = fused.loss_and_grads(model, params, x, y, mse_loss)

        def loss_at(p):
            pred = fused.seq2seq_predict(model, p, x)
            return float(((pred - y) ** 2).mean())

        eps = 1e-6
        for name, arr in params.items():
            flat = arr.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                bumped = {k: v.copy() for k, v in params.items()}
                bumped[name].reshape(-1)[idx] = flat[idx] + eps
                hi = loss_at(bumped)
                bumped[name].reshape(-1)[idx] = flat[idx] - eps
                lo = loss_at(bumped)
                numeric = (hi - lo) / (2 * eps)
                analytic = grads[name].reshape(-1)[idx]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7), name

    def test_predict_matches_tape_forward(self):
        rng = np.random.default_rng(29)
        model = make_mobility_model(hidden_size=5, seq_out=3, rng=rng)
        x = rng.normal(size=(4, 5, 2))
        tape_pred = tape_forward(leaves(model.params), Tensor(x), model.seq_out).data
        fused_pred = fused.seq2seq_predict(model, model.params, x)
        np.testing.assert_allclose(fused_pred, tape_pred, rtol=0, atol=0)


class TestBatchedKernels:
    """Stacked multi-worker pass vs independent single-worker passes."""

    @pytest.mark.parametrize("teacher_forcing", [False, True])
    def test_ragged_batch_matches_singles(self, teacher_forcing):
        rng = np.random.default_rng(31)
        model = make_mobility_model(hidden_size=5, seq_out=2, rng=rng)
        counts = [4, 1, 3]  # ragged per-worker window counts
        xs = [rng.normal(size=(n, 3, 2)) for n in counts]
        ys = [rng.normal(size=(n, 2, 2)) for n in counts]
        # Distinct parameters per worker so cross-worker leakage would show.
        per_worker = []
        for w in range(len(counts)):
            base = model.params
            per_worker.append({k: v + 0.01 * w for k, v in base.items()})
        stacked = {name: np.stack([p[name] for p in per_worker]) for name in per_worker[0]}

        losses, grads = fused.batched_loss_and_grads(
            model, stacked, xs, ys, mse_loss, teacher_forcing=teacher_forcing
        )
        for w in range(len(counts)):
            ref_loss, ref_grads = fused.loss_and_grads(
                model, per_worker[w], xs[w], ys[w], mse_loss, teacher_forcing=teacher_forcing
            )
            assert losses[w] == pytest.approx(ref_loss, rel=1e-12)
            for name in ref_grads:
                np.testing.assert_allclose(
                    grads[name][w], ref_grads[name], rtol=1e-9, atol=1e-12,
                    err_msg=f"worker {w} {name}",
                )

    def test_slices_do_not_depend_on_stack_width(self):
        """Lockstep meta-training stacks clusters whose windows agree in
        shape: a worker's slice must be bit-identical whether it shares
        the pass with one worker or with three."""
        rng = np.random.default_rng(37)
        model = make_mobility_model(hidden_size=3, seq_out=1, rng=rng)
        base = model.params
        xs = [rng.normal(size=(6, 4, 2)) for _ in range(4)]
        ys = [rng.normal(size=(6, 1, 2)) for _ in range(4)]
        wide = {name: np.repeat(p[None, ...], 4, axis=0) for name, p in base.items()}
        narrow = {name: np.repeat(p[None, ...], 2, axis=0) for name, p in base.items()}
        wide_losses, wide_grads = fused.batched_loss_and_grads(model, wide, xs, ys, mse_loss)
        narrow_losses, narrow_grads = fused.batched_loss_and_grads(
            model, narrow, xs[2:], ys[2:], mse_loss
        )
        assert wide_losses[2:] == narrow_losses
        for name in base:
            assert np.array_equal(wide_grads[name][2:], narrow_grads[name]), name

    def test_pad_and_stack_validation(self):
        with pytest.raises(ValueError):
            fused.pad_and_stack([])
        with pytest.raises(ValueError):
            fused.pad_and_stack([np.zeros((2, 3)), np.zeros((2, 4))])
        stacked, lengths = fused.pad_and_stack([np.ones((2, 3)), np.ones((4, 3))])
        assert stacked.shape == (2, 4, 3)
        assert lengths == [2, 4]
        assert stacked[0, 2:].sum() == 0.0
