"""Calibration of predicted completion probabilities against outcomes.

The paper's assignment quality rests on one predictive claim: the
completion probability derived from the matching rate (Definition 7
through Theorem 2) tells the platform how likely an assigned worker is
to actually accept.  PPI stages assignments by that score, so when the
mobility model goes stale — the stream drifts away from the routines it
was trained on — assignment utility degrades *silently*: plans still
come out, workers just reject more of them than the scores promised.

:class:`CalibrationMonitor` watches that claim online.  Every proposed
assignment contributes one ``(predicted probability, accepted)`` sample:

* **reliability bins** — samples bucketed by predicted probability,
  so ``mean(predicted)`` vs ``frac(accepted)`` per bin exposes where
  the model is over- or under-confident (and the expected calibration
  error summarises the gap);
* **Brier score** — the running mean of ``(p - y)^2``, the proper
  scoring rule for probabilistic predictions;
* **drift detection** — a Page–Hinkley test over the per-sample
  calibration error ``|p - y|``; a sustained rise beyond the configured
  threshold means the predictor's reliability assumption broke, and the
  monitor raises a ``serve.calibration.drift`` counter plus a
  structured drift event.

The detector is a deterministic function of the sample sequence, so a
seeded run trips (or doesn't) reproducibly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the calibration monitor.

    Attributes
    ----------
    n_bins:
        Reliability-diagram resolution over ``[0, 1]``.
    min_samples:
        Drift alarms are suppressed until this many outcomes arrived
        (the detector still updates, so the baseline is learned from
        the warm-up).
    ph_delta / ph_threshold:
        Page–Hinkley tolerance (magnitude of drift considered noise)
        and alarm threshold on the cumulative deviation statistic.
    """

    n_bins: int = 10
    min_samples: int = 30
    ph_delta: float = 0.02
    ph_threshold: float = 3.0

    def __post_init__(self) -> None:
        if self.n_bins < 1:
            raise ValueError("need at least one reliability bin")
        if self.ph_delta < 0:
            raise ValueError("ph_delta must be non-negative")
        if self.min_samples < 1:
            raise ValueError("min_samples must be positive")
        if self.ph_threshold <= 0:
            raise ValueError("drift threshold must be positive")

    def make_detector(self) -> PageHinkley:
        return PageHinkley(delta=self.ph_delta, threshold=self.ph_threshold)


@dataclass
class PageHinkley:
    """Page–Hinkley test for a sustained *increase* in a signal's mean.

    Tracks the running mean ``x̄`` and the cumulative deviation
    ``m_t = Σ (x_i - x̄_i - δ)``; an alarm fires when ``m_t`` exceeds
    its running minimum by more than ``threshold``.  ``δ`` absorbs
    drift small enough to be noise.
    """

    delta: float = 0.02
    threshold: float = 3.0
    n: int = 0
    mean: float = 0.0
    cumulative: float = 0.0
    minimum: float = 0.0

    def update(self, x: float) -> bool:
        """Feed one observation; ``True`` when the alarm fires."""
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self.cumulative += x - self.mean - self.delta
        self.minimum = min(self.minimum, self.cumulative)
        return self.cumulative - self.minimum > self.threshold

    @property
    def statistic(self) -> float:
        """Current deviation above the running minimum."""
        return self.cumulative - self.minimum

    def reset(self) -> None:
        """Re-arm after an alarm (the post-drift regime is the new baseline)."""
        self.n = 0
        self.mean = 0.0
        self.cumulative = 0.0
        self.minimum = 0.0


@dataclass
class _Bin:
    n: int = 0
    sum_p: float = 0.0
    n_accepted: int = 0


class CalibrationMonitor:
    """Online reliability of predicted completion probabilities.

    ``observe(p, accepted, t)`` ingests one assignment outcome; the
    return value is the drift event dict when this sample tripped the
    detector (``None`` otherwise).  :meth:`summary` renders the
    reliability diagram, Brier score, expected calibration error, and
    the drift history.
    """

    def __init__(self, config: CalibrationConfig | None = None) -> None:
        self.config = config if config is not None else CalibrationConfig()
        self.detector = self.config.make_detector()
        self.bins = [_Bin() for _ in range(self.config.n_bins)]
        self.n = 0
        self.brier_sum = 0.0
        self.drift_events: list[dict] = []

    def observe(self, predicted: float, accepted: bool, t: float) -> dict | None:
        if not 0.0 <= predicted <= 1.0 or not math.isfinite(predicted):
            raise ValueError(f"predicted probability must lie in [0, 1], got {predicted}")
        y = 1.0 if accepted else 0.0
        self.n += 1
        self.brier_sum += (predicted - y) ** 2
        idx = min(int(predicted * self.config.n_bins), self.config.n_bins - 1)
        b = self.bins[idx]
        b.n += 1
        b.sum_p += predicted
        b.n_accepted += int(accepted)

        tripped = self.detector.update(abs(predicted - y))
        if tripped and self.n >= self.config.min_samples:
            event = {
                "type": "drift",
                "t": float(t),
                "n_samples": self.n,
                "detector": "page_hinkley",
                "statistic": float(self.detector.statistic),
                "brier": self.brier,
            }
            self.drift_events.append(event)
            self.detector.reset()
            return event
        return None

    @property
    def brier(self) -> float:
        return self.brier_sum / self.n if self.n else 0.0

    @property
    def expected_calibration_error(self) -> float:
        """Bin-weighted ``|mean predicted - observed acceptance|``."""
        if not self.n:
            return 0.0
        total = 0.0
        for b in self.bins:
            if b.n:
                total += b.n * abs(b.sum_p / b.n - b.n_accepted / b.n)
        return total / self.n

    def summary(self) -> dict:
        """JSON-ready calibration state (for series files and manifests)."""
        width = 1.0 / self.config.n_bins
        return {
            "n_samples": self.n,
            "brier": self.brier,
            "ece": self.expected_calibration_error,
            "n_drift_events": len(self.drift_events),
            "drift_events": list(self.drift_events),
            "bins": [
                {
                    "lo": i * width,
                    "hi": (i + 1) * width,
                    "n": b.n,
                    "mean_predicted": b.sum_p / b.n if b.n else None,
                    "frac_accepted": b.n_accepted / b.n if b.n else None,
                }
                for i, b in enumerate(self.bins)
            ],
        }
