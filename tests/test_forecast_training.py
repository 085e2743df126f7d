"""The seq2seq demand forecaster trains on the fused BPTT kernels.

``Seq2SeqForecaster.fit`` steps Adam on :func:`repro.nn.fused.loss_and_grads`
(teacher-forced MSE).  The reference below is the autograd-tape loop it
replaced; the two agree to float round-off, not bit for bit, because
the kernels sum the gradients in a different order.
"""

import numpy as np
import pytest

from repro.forecast import DemandSeries, ForecastConfig, Seq2SeqForecaster
from repro.forecast.demand import demand_windows
from repro.geo.grid import Grid
from repro.nn import Adam, make_mobility_model, mse_loss
from tests.tape import Tensor, tape_loss_and_grads

RTOL = 1e-9
ATOL = 1e-12


def random_series(seed: int, n_cells: int, n_bins: int = 20) -> DemandSeries:
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.5, 6.0, size=n_cells)
    counts = rng.poisson(rates, size=(n_bins, n_cells)).astype(float)
    grid = Grid(width_km=float(n_cells), height_km=1.0, rows=1, cols=n_cells)
    return DemandSeries(grid=grid, bin_minutes=1.0, t_start=0.0, counts=counts)


def tape_fit(forecaster: Seq2SeqForecaster, series: DemandSeries) -> Seq2SeqForecaster:
    """Reference: ``fit`` with Adam stepped on the tape's gradients."""
    active = series.active_cells(top_k=forecaster.top_cells)
    sub = series.counts[:, active]
    scale = float(max(sub.max(), 1.0))
    x, y = demand_windows(sub / scale, forecaster.seq_in, forecaster.seq_out)
    model = make_mobility_model(
        input_size=int(active.size),
        hidden_size=forecaster.hidden_size,
        seq_out=forecaster.seq_out,
        rng=np.random.default_rng(forecaster.seed),
    )
    optimizer = Adam(model.params, lr=forecaster.lr)
    for _ in range(forecaster.epochs):
        _, grads = tape_loss_and_grads(model, model.params, x, y, mse_loss, teacher_forcing=True)
        optimizer.step(grads)
    forecaster._model, forecaster._active, forecaster._scale = model, active, scale
    return forecaster


@pytest.mark.parametrize("seq_out", [1, 2])
@pytest.mark.parametrize("n_cells", [1, 3, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_fit_matches_the_tape_loop(seed, n_cells, seq_out):
    kwargs = dict(hidden_size=8, seq_in=4, seq_out=seq_out, top_cells=4, epochs=25, seed=seed)
    series = random_series(seed, n_cells)
    fused_fc = Seq2SeqForecaster(**kwargs).fit(series)
    tape_fc = tape_fit(Seq2SeqForecaster(**kwargs), series)

    assert np.array_equal(fused_fc._active, tape_fc._active)
    assert fused_fc._scale == tape_fc._scale
    fused_state, tape_state = fused_fc._model.state_dict(), tape_fc._model.state_dict()
    assert set(fused_state) == set(tape_state)
    for name in tape_state:
        np.testing.assert_allclose(
            fused_state[name], tape_state[name], rtol=RTOL, atol=ATOL, err_msg=name
        )
    for tail in (series.counts[-4:], series.counts[-2:]):
        np.testing.assert_allclose(
            fused_fc.predict(tail, steps=seq_out),
            tape_fc.predict(tail, steps=seq_out),
            rtol=RTOL,
            atol=ATOL,
        )


def test_fit_never_runs_the_tape(monkeypatch):
    calls = []
    original = Tensor.backward

    def spy(self, *args, **kwargs):
        calls.append(self.shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "backward", spy)
    forecaster = Seq2SeqForecaster(hidden_size=6, seq_in=4, epochs=3, seed=0)
    forecaster.fit(random_series(0, 3))
    assert forecaster.fitted
    assert calls == []
    # The spy does see the tape when it runs.
    tape_fit(Seq2SeqForecaster(hidden_size=6, seq_in=4, epochs=3, seed=0), random_series(0, 3))
    assert len(calls) == 3


def test_cell_knobs_are_gone():
    with pytest.raises(TypeError, match="seq_cell"):
        ForecastConfig(seq_cell="lstm")
    with pytest.raises(TypeError, match="cell"):
        Seq2SeqForecaster(cell="lstm")
