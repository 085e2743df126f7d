"""repro.forecast — per-cell demand forecasting and proactive dispatch.

The serving stack built in :mod:`repro.serve` is purely reactive:
batches fire on arrivals and idle workers sit wherever their last task
left them.  This package closes the loop the ROADMAP's DATA-WA
direction asks for:

* :mod:`repro.forecast.demand` — per-grid-cell task-arrival time
  series extracted from any stream (``repro.geo.grid`` cells over the
  generators of :mod:`repro.serve.streams`), with train/eval
  windowing for supervised forecasters;
* :mod:`repro.forecast.models` — one ``DemandForecaster`` protocol
  over three interchangeable predictors: an EWMA baseline, a
  seasonal-naive baseline, and a seq2seq forecaster on the existing
  :mod:`repro.nn` LSTM encoder-decoder, trained and run on the fused
  kernels;
* :mod:`repro.forecast.dispatch` — the proactive policy: a
  ``ForecastTrigger`` that pulls a batch forward when predicted demand
  exceeds a threshold (composing with the serve trigger protocol) and
  a pre-positioning planner that moves *idle* workers toward predicted
  hot cells between batches, subject to each worker's detour budget
  and availability window.

With ``ServeConfig.forecast`` unset the engine is bit-identical to the
seed engine (``result_signature`` parity); see ``docs/FORECASTING.md``.
"""

from repro.forecast.demand import (
    DemandSeries,
    demand_windows,
    extract_demand,
    grid_for_tasks,
    train_eval_split,
)
from repro.forecast.dispatch import (
    ForecastConfig,
    ForecastRuntime,
    ForecastTrigger,
    Move,
    relocated_worker,
)
from repro.forecast.models import (
    EWMAForecaster,
    SeasonalNaiveForecaster,
    Seq2SeqForecaster,
    make_forecaster,
)

__all__ = [
    "DemandSeries",
    "extract_demand",
    "demand_windows",
    "train_eval_split",
    "grid_for_tasks",
    "EWMAForecaster",
    "SeasonalNaiveForecaster",
    "Seq2SeqForecaster",
    "make_forecaster",
    "ForecastConfig",
    "ForecastRuntime",
    "ForecastTrigger",
    "Move",
    "relocated_worker",
]
