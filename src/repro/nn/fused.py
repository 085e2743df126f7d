"""Fused forward+backward (full BPTT) kernels for the recurrent stack.

These hand-derived kernels are the one path that runs and trains the
LSTM encoder-decoder of :mod:`repro.nn.seq2seq`.  Their reference is
an autograd tape that lives with the tests (``tests/tape.py``): every
gate of every timestep allocates tape closures there, so its training
throughput on the small mobility models is dominated by Python overhead
rather than numpy FLOPs.  The kernels are built around three ideas:

* **One cached forward, one reverse sweep.**  The forward pass writes
  each step's gate activations into preallocated per-sequence stacks;
  the reverse sweep reads them back and overwrites them in place with
  the gate gradients — no per-op graph, no topological sort, and no
  per-step arrays are ever stacked or concatenated.
* **Factored backward.**  Everything in the backward recurrence that
  does not depend on the running carry ``dh``/``dc`` — the products of
  gate values with their activation jacobians — is precomputed once
  over the whole sequence with a handful of vectorized ufuncs, leaving
  fewer than ten numpy calls per reverse step.  Parameter gradients
  are then accumulated with one matmul per parameter, summing over
  batch and time at once.
* **Contiguity-aware memory layout.**  Scratch stacks are *time-major*
  (``(..., T, B, K)``), so the slice a step touches is one contiguous
  block rather than ``B`` scattered rows — on the stacked multi-worker
  path this roughly halves the cost of every in-place ufunc.  LSTM
  gate columns are additionally permuted from the parameter layout
  ``[i, f, g, o]`` to ``[i, f, o, g]`` (an involution on the weight
  columns) so the three sigmoid gates form one contiguous block and a
  single activation chain covers them all.

The encoder-decoder unroll is fused end to end, covering both decode
modes (teacher forcing and autoregressive feedback, where the gradient
flows back through the emitted points).

Every loss (:mod:`repro.nn.losses`) returns its value and ``dL/dpred``
in closed form; the Eq. 7 weights of the task assignment-oriented loss
depend only on the target, so a loop on a fixed target passes them in
once computed (``weights=``).

Every kernel also runs **stacked**: give the arrays a leading worker
axis — inputs ``(W, B, T, F)``, parameters ``(W, F, 4H)`` — and numpy's
batched matmul adapts ``W`` workers' models in a single pass (the
batched meta-training fast path).  Padding rows are masked by zeroing
their entries of ``dL/dpred``; because every window's forward pass is
independent across the batch axis, zero upstream gradient makes a
padded row contribute exactly nothing to any parameter gradient.

Equivalence with the tape is exact up to floating-point associativity:
the forward pass replays the tape's operation order (including the
sigmoid input clamping), and the gradient checks in
``tests/test_nn_fused.py`` pin the two together at ``rtol=1e-6``.
See ``DESIGN.md`` §8 for the derivation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.nn.losses import LossFn, mse_loss, weighted_mse_loss

Array = np.ndarray

# Above this element count, a strided sigmoid runs faster as one strided
# read + a contiguous in-place chain + one strided write-back; below it,
# the pure in-place chain wins on allocation cost.  Either branch emits
# bit-identical values.
_SIGMOID_ALLOC_THRESHOLD = 4096


def _sigmoid_(z: Array) -> Array:
    """In-place sigmoid on ``z``, bit-identical to the tape's ``sigmoid``.

    The tape clips the input to ``[-60, 60]`` before ``exp``.  The lower
    clamp changes emitted values (``sigmoid(-70) != sigmoid(-60)`` in
    float64) and is kept; the upper clamp is dropped because for every
    ``z > 37`` — well below the 60 where it would bite — ``1 + exp(-z)``
    already rounds to exactly 1.0, so clamped and unclamped agree bit
    for bit.
    """
    if z.size >= _SIGMOID_ALLOC_THRESHOLD and not z.flags.c_contiguous:
        out = np.maximum(z, -60.0)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
        z[...] = out
        return z
    np.maximum(z, -60.0, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    np.reciprocal(z, out=z)
    return z


def _mT(a: Array) -> Array:
    return a.swapaxes(-1, -2)


def _tmaj(a: Array) -> Array:
    # Batch-major (..., B, T, K) <-> time-major (..., T, B, K); a view.
    return a.swapaxes(-3, -2)


def _proj(x: Array, w: Array) -> Array:
    # Whole-sequence projection (..., T, B, F) @ (..., F, K) -> (..., T, B, K).
    # Worker-stacked weights flatten (T, B) first so each worker is one
    # gemm instead of T; 2-D weights already hit a single gemm.
    if w.ndim > 2:
        out = _flatten_tb(x) @ w
        return out.reshape(x.shape[:-1] + (w.shape[-1],))
    return x @ w


def _flatten_tb(a: Array) -> Array:
    # (..., T, B, K) -> (..., T*B, K) so one matmul sums over batch AND time.
    return a.reshape(a.shape[:-3] + (a.shape[-3] * a.shape[-2], a.shape[-1]))


def _perm_ifog(w: Array) -> Array:
    """Swap the last two LSTM gate blocks: ``[i,f,g,o]`` <-> ``[i,f,o,g]``.

    An involution on the last axis, applied to the weights on the way in
    and to the weight gradients on the way out.  Matmuls are column-exact
    under the permutation, so every emitted number matches the
    unpermuted computation bit for bit.
    """
    n = w.shape[-1] // 4
    return np.concatenate((w[..., : 2 * n], w[..., 3 * n :], w[..., 2 * n : 3 * n]), axis=-1)


def _lstm_weights(params: Mapping[str, Array], prefix: str) -> tuple[Array, Array, Array]:
    """An LSTM cell's ``(w_ih, w_hh, bias)``, gate-permuted."""
    return tuple(_perm_ifog(params[prefix + name]) for name in ("w_ih", "w_hh", "bias"))


# ----------------------------------------------------------------------
# sequence kernels
# ----------------------------------------------------------------------
class _LSTMKernel:
    """One LSTM unroll: scratch stacks, forward steps, factored reverse.

    Derivation (parameter gate order ``[i, f, g, o]``, ``c' = f c + i g``,
    ``h' = o tanh(c')``): with ``T = tanh(c')``,

        do = dh' T            dc_tot = dc' + dh' o (1 - T^2)
        di = dc_tot g         df = dc_tot c        dg = dc_tot i
        dc_prev = dc_tot f    dh_prev = dgates W_hh^T

    and each pre-activation gets the matching sigmoid/tanh jacobian.
    Those jacobian products depend only on cached activations, so
    :meth:`prepare_backward` evaluates them for all steps at once and
    :meth:`back_step` is left with only the carry-dependent work.

    Scratch stacks are time-major (``(..., T, B, K)``); gate columns are
    held permuted as ``[i, f, o, g]`` (see :func:`_perm_ifog`) so one
    sigmoid chain covers all three sigmoid gates.
    """

    __slots__ = ("w_ih", "w_hh", "bias", "n", "h0", "c0", "state_in",
                 "x", "G", "C", "TC", "OUT", "_factors")

    def __init__(self, weights: tuple, lead: tuple, steps: int, state=None):
        # ``weights`` is ``(w_ih, w_hh, bias)`` from :func:`_lstm_weights`.
        self.w_ih, self.w_hh, self.bias = weights
        n = self.w_hh.shape[-2]
        self.n = n
        self.state_in = state is not None
        if state is not None:
            self.h0, self.c0 = state
        else:
            self.h0 = np.zeros(lead + (n,))
            self.c0 = np.zeros(lead + (n,))
        stack = lead[:-1] + (steps, lead[-1])
        self.x = None  # time-major inputs (..., T, B, F); set by the driver
        self.G = np.empty(stack + (4 * n,))  # gates, then dgates
        self.C = np.empty(stack + (n,))      # cell state
        self.TC = np.empty(stack + (n,))     # tanh(cell state)
        self.OUT = np.empty(stack + (n,))    # hidden state
        self._factors = None

    def input_proj(self, x: Array) -> Array:
        """Hoist the input projection out of the recurrence (one matmul)."""
        return _proj(x, self.w_ih)

    def step(self, t: int, xp_t: Array, h: Array, c: Array) -> tuple[Array, Array]:
        """One forward step; ``xp_t`` is ``x_t @ w_ih`` (bias not yet added)."""
        n = self.n
        g = self.G[..., t, :, :]
        np.add(xp_t, h @ self.w_hh, out=g)
        g += self.bias[..., None, :]
        _sigmoid_(g[..., : 3 * n])
        gg = g[..., 3 * n :]
        np.tanh(gg, out=gg)
        c_new = self.C[..., t, :, :]
        np.multiply(g[..., n : 2 * n], c, out=c_new)
        c_new += g[..., :n] * gg
        tc = self.TC[..., t, :, :]
        np.tanh(c_new, out=tc)
        h_new = self.OUT[..., t, :, :]
        np.multiply(g[..., 2 * n : 3 * n], tc, out=h_new)
        return h_new, c_new

    def prepare_backward(self) -> None:
        """Precompute the carry-independent jacobian factors, all steps.

        Each factor is built with allocating ufuncs over the whole
        stack: strided gate-block *reads* are cheap, and keeping the
        *outputs* contiguous beats packing the factors into one
        gate-shaped array (strided block writes cost more than the
        allocations save).
        """
        n = self.n
        G, TC, C = self.G, self.TC, self.C
        i = G[..., :n]
        f = G[..., n : 2 * n]
        o = G[..., 2 * n : 3 * n]
        g = G[..., 3 * n :]
        cp = np.empty_like(C)  # c_{t-1} aligned with step t
        cp[..., 0, :, :] = self.c0
        cp[..., 1:, :, :] = C[..., :-1, :, :]
        a = np.multiply(TC, TC)  # o (1 - T^2): dc_tot per unit dh
        np.subtract(1.0, a, out=a)
        a *= o
        eo = np.subtract(1.0, o)  # T o (1 - o): o-gate jacobian per unit dh
        eo *= o
        eo *= TC
        bi = np.subtract(1.0, i)  # g i (1 - i): i-gate jacobian per unit dc_tot
        bi *= i
        bi *= g
        cf = np.subtract(1.0, f)  # c_prev f (1 - f): f-gate jacobian per unit dc_tot
        cf *= f
        cf *= cp
        dg = np.multiply(g, g)  # i (1 - g^2): candidate jacobian per unit dc_tot
        np.subtract(1.0, dg, out=dg)
        dg *= i
        self._factors = (a, bi, cf, dg, eo)

    def back_step(self, t: int, dh: Array, dc: Array | None) -> tuple[Array, Array]:
        """Elementwise reverse of step ``t``; returns ``(dgates_t, dc_prev)``.

        Overwrites gate slice ``t`` with the pre-activation gradients.
        The caller owns the ``dgates @ w_hh^T`` matmul so sequence
        drivers can fold their own upstream terms into the carry.
        ``dc`` is ``None`` when the last step has no cell-state gradient.
        """
        n = self.n
        a, bi, cf, dg, eo = self._factors
        g = self.G[..., t, :, :]
        dct = dh * a[..., t, :, :]
        if dc is not None:
            dct += dc
        dc_prev = dct * g[..., n : 2 * n]  # read f before overwriting it
        np.multiply(dh, eo[..., t, :, :], out=g[..., 2 * n : 3 * n])
        np.multiply(dct, bi[..., t, :, :], out=g[..., :n])
        np.multiply(dct, cf[..., t, :, :], out=g[..., n : 2 * n])
        np.multiply(dct, dg[..., t, :, :], out=g[..., 3 * n :])
        return g, dc_prev

    def grads(self, out: dict[str, Array], prefix: str) -> dict[str, Array]:
        """Parameter gradients from the completed sweep, into ``out``."""
        DG = self.G  # overwritten in place by back_step
        dg_flat = _flatten_tb(DG)
        w_ih_g = _mT(_flatten_tb(self.x)) @ dg_flat
        # h_prev for step t is OUT[t-1]; the t=0 term uses h0, which is
        # identically zero unless an initial state was fed in.
        w_hh_g = _mT(_flatten_tb(self.OUT[..., :-1, :, :])) @ _flatten_tb(DG[..., 1:, :, :])
        if self.state_in:
            w_hh_g += _mT(self.h0) @ DG[..., 0, :, :]
        out[prefix + "w_ih"] = _perm_ifog(w_ih_g)
        out[prefix + "w_hh"] = _perm_ifog(w_hh_g)
        out[prefix + "bias"] = _perm_ifog(DG.sum(axis=(-3, -2)))
        return out


# ----------------------------------------------------------------------
# seq2seq encoder-decoder kernels
# ----------------------------------------------------------------------
class Seq2SeqWeights:
    """A seq2seq model's parameters in kernel layout.

    Gate-permutes the LSTM weights of a parameter mapping (see
    :func:`_perm_ifog`).  :func:`seq2seq_forward` builds one per call
    from the mapping it is given, or takes one built earlier: a caller
    making many passes on fixed weights (an autoregressive rollout)
    prepares them once.  Valid while the parameters are unchanged.
    """

    __slots__ = ("encoder", "decoder", "w_head", "b_head")

    def __init__(self, params: Mapping[str, Array]):
        self.encoder = _lstm_weights(params, "encoder.")
        self.decoder = _lstm_weights(params, "decoder.")
        self.w_head = params["head.weight"]
        self.b_head = params["head.bias"]


class Seq2SeqCache:
    """Forward-pass state the seq2seq reverse sweep consumes."""

    __slots__ = ("enc", "dec", "teacher_forcing", "seq_out", "w_head")

    def __init__(self, enc, dec, teacher_forcing, seq_out, w_head):
        self.enc = enc
        self.dec = dec
        self.teacher_forcing = teacher_forcing
        self.seq_out = seq_out
        self.w_head = w_head


def seq2seq_forward(
    model,
    params: "Mapping[str, Array] | Seq2SeqWeights",
    x: Array,
    targets: Array | None = None,
) -> tuple[Array, Seq2SeqCache]:
    """Fused encoder-decoder forward; replays the tape reference exactly.

    ``x`` is ``(..., B, seq_in, F)``; parameters may carry matching
    leading stack dimensions, and may come prepared as
    :class:`Seq2SeqWeights`.  ``model`` gives ``seq_out``; ``targets``
    enables teacher forcing.  Returns ``(pred, cache)`` with ``pred``
    shaped ``(..., B, seq_out, F)``.
    """
    weights = params if isinstance(params, Seq2SeqWeights) else Seq2SeqWeights(params)
    x = np.asarray(x, dtype=np.float64)
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
    lead = x.shape[:-2]
    seq_in = x.shape[-2]
    seq_out = model.seq_out
    xt = _tmaj(x)

    # Encoder: inputs are all known up front, so both the unroll driver
    # and the kernel can hoist the input projection.
    enc = _LSTMKernel(weights.encoder, lead, seq_in)
    enc.x = xt
    xp = enc.input_proj(xt)
    h, c = enc.h0, enc.c0
    for t in range(seq_in):
        h, c = enc.step(t, xp[..., t, :, :], h, c)
    dec = _LSTMKernel(weights.decoder, lead, seq_out, state=(h, c))

    # Decoder: autoregressive (or teacher-forced) residual unroll.
    w_head = weights.w_head
    b_head = weights.b_head
    feat = x.shape[-1]
    u_steps = np.empty(lead[:-1] + (seq_out, lead[-1], feat))
    dec.x = u_steps
    pred = np.empty(lead + (seq_out, feat))
    u = x[..., seq_in - 1, :]
    for t in range(seq_out):
        u_steps[..., t, :, :] = u
        h, c = dec.step(t, u @ dec.w_ih, h, c)
        delta = h @ w_head
        delta += b_head[..., None, :]
        point = pred[..., t, :]
        np.add(u, delta, out=point)
        if targets is not None and t < seq_out - 1:
            u = targets[..., t, :]
        else:
            u = point
    return pred, Seq2SeqCache(enc, dec, targets is not None, seq_out, w_head)


def seq2seq_backward(cache: Seq2SeqCache, dpred: Array) -> dict[str, Array]:
    """Reverse sweep through decoder, residual head, and encoder.

    ``dpred`` is ``dL/dpred``; in autoregressive mode the gradient of a
    point also flows into the next decoder input (and its residual), so
    the carry ``du`` is folded into the next-earlier step's ``dpred``
    during the sweep.  Returns parameter gradients keyed like the
    model's ``params``.
    """
    enc, dec = cache.enc, cache.dec
    w_head_t = _mT(cache.w_head)
    autoregressive = not cache.teacher_forcing
    seq_out = cache.seq_out

    dec.prepare_backward()
    dph = np.empty_like(dpred)  # dL/dpoint with the carry folded in
    dh: Array | None = None
    dc: Array | None = None
    du: Array | None = None
    for t in range(seq_out - 1, -1, -1):
        dp = dph[..., t, :]
        if du is None:
            dp[...] = dpred[..., t, :]
        else:
            np.add(dpred[..., t, :], du, out=dp)
        dh = dp @ w_head_t if dh is None else dh + dp @ w_head_t
        dgates, dc = dec.back_step(t, dh, dc)
        dh = dgates @ _mT(dec.w_hh)
        if autoregressive and t > 0:
            # Residual head: the point is (input + delta), so the
            # carry into the previous step's point is dp plus the
            # cell-input term.
            du = dp + dgates @ _mT(dec.w_ih)

    grads: dict[str, Array] = {}
    dph_flat = _flatten_tb(_tmaj(dph))
    grads["head.weight"] = _mT(_flatten_tb(dec.OUT)) @ dph_flat
    grads["head.bias"] = dph.sum(axis=(-3, -2))
    dec.grads(grads, "decoder.")

    # The decoder's initial state is the encoder's final state; encoder
    # inputs are data, so only the state carry flows back — no dx.
    enc.prepare_backward()
    for t in range(enc.OUT.shape[-3] - 1, -1, -1):
        dgates, dc = enc.back_step(t, dh, dc)
        dh = dgates @ _mT(enc.w_hh)
    enc.grads(grads, "encoder.")
    return grads


def seq2seq_predict(
    model,
    params: "Mapping[str, Array] | Seq2SeqWeights",
    x: Array,
    targets: Array | None = None,
) -> Array:
    """Forward-only fused pass (inference; caches discarded)."""
    pred, _ = seq2seq_forward(model, params, x, targets=targets)
    return pred


# ----------------------------------------------------------------------
# loss coupling and training-step entry points
# ----------------------------------------------------------------------
def loss_grad_wrt_pred(
    loss_fn: LossFn, pred: Array, target: Array, weights: Array | None = None
) -> tuple[float, Array]:
    """The loss value and its gradient w.r.t. the prediction.

    ``weights`` are the task-oriented loss's per-point weights for this
    ``target`` (:func:`repro.nn.losses.loss_weights`), for loops that
    step on one fixed target; without them the loss computes its own.
    """
    if weights is None:
        return loss_fn(pred, target)
    return weighted_mse_loss(pred, target, weights)


def loss_and_grads(
    model,
    params: Mapping[str, Array],
    x: Array,
    y: Array,
    loss_fn: LossFn,
    teacher_forcing: bool = False,
    weights: Array | None = None,
) -> tuple[float, dict[str, Array]]:
    """One fused training step: loss value plus named parameter gradients.

    The same loss and gradients (to float round-off) as the tape
    reference's backward pass.  ``weights`` passes the loss's per-point
    weights for ``y`` through to :func:`loss_grad_wrt_pred`, for loops
    that step on one fixed target.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    pred, cache = seq2seq_forward(model, params, x, targets=y_arr if teacher_forcing else None)
    loss_val, dpred = loss_grad_wrt_pred(loss_fn, pred, y_arr, weights)
    return loss_val, seq2seq_backward(cache, dpred)


# ----------------------------------------------------------------------
# stacked multi-worker helpers (the batched meta-training fast path)
# ----------------------------------------------------------------------
def pad_and_stack(arrays: Sequence[Array]) -> tuple[Array, list[int]]:
    """Zero-pad ragged per-worker window sets into one stacked array.

    ``arrays[w]`` is ``(n_w, ...)``; returns ``((W, max_n, ...), [n_w])``.
    Padded rows are masked out downstream by zeroing their ``dL/dpred``.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if not arrays:
        raise ValueError("need at least one array")
    trailing = arrays[0].shape[1:]
    for a in arrays[1:]:
        if a.shape[1:] != trailing:
            raise ValueError(f"window shapes do not align: {a.shape[1:]} vs {trailing}")
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) == 1:  # no padding needed: one C-level stack
        return np.stack(arrays), lengths
    out = np.zeros((len(arrays), max(lengths)) + trailing)
    for i, a in enumerate(arrays):
        out[i, : len(a)] = a
    return out, lengths


def batched_loss_and_grads(
    model,
    stacked_params: Mapping[str, Array],
    xs: Sequence[Array],
    ys: Sequence[Array],
    loss_fn: LossFn,
    teacher_forcing: bool = False,
) -> tuple[list[float], dict[str, Array]]:
    """Per-worker losses and gradients from one stacked BPTT pass.

    ``xs[w]``/``ys[w]`` are worker ``w``'s (possibly ragged) windows and
    ``stacked_params`` that worker's parameter slice along axis 0.  The
    per-worker loss is evaluated on the *unpadded* rows only, so the
    values — and therefore the gradients — match ``W`` independent
    single-worker passes exactly.
    """
    X, lengths = pad_and_stack(xs)
    Y, _ = pad_and_stack(ys)
    pred, cache = seq2seq_forward(model, stacked_params, X, targets=Y if teacher_forcing else None)
    if loss_fn is mse_loss and len(set(lengths)) == 1 and lengths[0] > 0:
        # Equal window counts: one vectorized loss over all workers.  Each
        # worker's rows are one contiguous block, so the per-worker
        # reduction is bit-identical to the scalar path's ``sum()``.
        diff = pred - Y
        inv = 1.0 / pred[0].size
        sq = diff * diff
        losses = [float(v) for v in sq.reshape(len(lengths), -1).sum(axis=1) * inv]
        dpred = diff * (2.0 * inv)
    else:
        dpred = np.zeros_like(pred)
        losses = []
        for w, (n, y) in enumerate(zip(lengths, ys)):
            if n == 0:
                losses.append(0.0)
                continue
            loss_val, grad = loss_grad_wrt_pred(loss_fn, pred[w, :n], y)
            losses.append(loss_val)
            dpred[w, :n] = grad
    return losses, seq2seq_backward(cache, dpred)
