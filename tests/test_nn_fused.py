"""Gradient checks for the fused BPTT kernels against the autograd tape.

Every fused kernel in :mod:`repro.nn.fused` is compared against the
reference tape path at ``rtol=1e-6`` (forward values are bit-exact by
construction; gradients differ only in summation order), plus a
central-difference check that catches errors the two analytic paths
could share.
"""

import numpy as np
import pytest

from repro.nn import fused
from repro.nn.lstm import LSTM
from repro.nn.losses import TaskDensityWeighter, mae_loss, mse_loss
from repro.nn.seq2seq import make_mobility_model
from repro.nn.tensor import Tensor, grad_of

RTOL = 1e-6
ATOL = 1e-9


def tape_loss_and_grads(model, x, y, loss_fn, teacher_forcing=False):
    """Reference: functional_call through the tape, named grads."""
    params = {k: v.clone(requires_grad=True) for k, v in model.named_parameters()}
    y_t = Tensor(np.asarray(y, dtype=float))
    kwargs = {"targets": y_t} if teacher_forcing else {}
    pred = model.functional_call(params, Tensor(np.asarray(x, dtype=float)), **kwargs)
    loss = loss_fn(pred, y_t)
    names = list(params)
    grads = dict(zip(names, grad_of(loss, (params[n] for n in names))))
    return float(loss.item()), grads


def assert_grads_close(fused_grads, tape_grads, rtol=RTOL, atol=ATOL):
    assert set(fused_grads) == set(tape_grads)
    for name in tape_grads:
        np.testing.assert_allclose(
            fused_grads[name], tape_grads[name], rtol=rtol, atol=atol, err_msg=name
        )


class TestLayerKernels:
    """lstm_forward/backward vs the module."""

    @pytest.mark.parametrize("batch,steps,features,hidden", [(3, 4, 2, 5), (1, 1, 3, 2)])
    def test_lstm_layer_matches_tape(self, batch, steps, features, hidden):
        rng = np.random.default_rng(11)
        layer = LSTM(features, hidden, rng)
        x = rng.normal(size=(batch, steps, features))
        w_out = rng.normal(size=(batch, steps, hidden))
        w_h = rng.normal(size=(batch, hidden))
        w_c = rng.normal(size=(batch, hidden))

        x_t = Tensor(x, requires_grad=True)
        out, (h, c) = layer.forward(x_t)
        loss = (out * Tensor(w_out)).sum() + (h * Tensor(w_h)).sum() + (c * Tensor(w_c)).sum()
        loss.backward()

        params = fused.as_param_arrays(dict(layer.named_parameters()))
        f_out, (f_h, f_c), caches = fused.lstm_forward(x, params)
        np.testing.assert_allclose(f_out, out.data, rtol=0, atol=0)
        np.testing.assert_allclose(f_h, h.data, rtol=0, atol=0)
        dx, _, grads = fused.lstm_backward(caches, params, d_outputs=w_out, d_state=(w_h, w_c))
        np.testing.assert_allclose(dx, x_t.grad, rtol=RTOL, atol=ATOL)
        assert_grads_close(grads, {n: p.grad for n, p in layer.named_parameters()})


class TestSeq2SeqKernels:
    """Fused encoder-decoder loss_and_grads vs the tape, all decode modes."""

    @pytest.mark.parametrize("seq_out", [1, 3])
    @pytest.mark.parametrize("teacher_forcing", [False, True])
    def test_matches_tape(self, seq_out, teacher_forcing):
        rng = np.random.default_rng(17)
        model = make_mobility_model(hidden_size=7, seq_out=seq_out, rng=rng)
        x = rng.normal(size=(5, 4, 2))
        y = rng.normal(size=(5, seq_out, 2))

        ref_loss, ref_grads = tape_loss_and_grads(model, x, y, mse_loss, teacher_forcing)
        loss, grads = fused.loss_and_grads(
            model, dict(model.named_parameters()), x, y, mse_loss, teacher_forcing=teacher_forcing
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
        ref_loss, ref_grads = tape_loss_and_grads(model, x, y, loss_fn)
        loss, grads = fused.loss_and_grads(model, dict(model.named_parameters()), x, y, loss_fn)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        assert_grads_close(grads, ref_grads)

    def test_finite_differences(self):
        """Central differences on random parameter entries — independent of
        the tape, catches errors both analytic paths could share."""
        rng = np.random.default_rng(23)
        model = make_mobility_model(hidden_size=4, seq_out=2, rng=rng)
        x = rng.normal(size=(3, 3, 2))
        y = rng.normal(size=(3, 2, 2))
        params = fused.as_param_arrays(dict(model.named_parameters()))
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
        tape_pred = model.forward(Tensor(x)).data
        fused_pred = fused.seq2seq_predict(model, dict(model.named_parameters()), x)
        np.testing.assert_allclose(fused_pred, tape_pred, rtol=0, atol=0)

    def test_supports(self):
        from repro.nn.layers import MLP

        rng = np.random.default_rng(1)
        assert fused.supports(make_mobility_model(rng=rng))
        assert not fused.supports(MLP([2, 4, 2], rng))
        with pytest.raises(TypeError, match="MLP"):
            fused.Seq2SeqWeights(MLP([2, 4, 2], rng), {})


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
            base = fused.as_param_arrays(dict(model.named_parameters()))
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
        base = fused.as_param_arrays(dict(model.named_parameters()))
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
