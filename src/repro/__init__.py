"""repro: reproduction of "Effective Task Assignment in Mobility
Prediction-Aware Spatial Crowdsourcing" (ICDE 2025).

The package implements the TAMP problem end to end:

* :mod:`repro.geo` -- planar geometry, grids, trajectories, detours;
* :mod:`repro.nn` -- the LSTM encoder-decoder mobility model on
  from-scratch fused numpy BPTT kernels, and the task
  assignment-oriented loss;
* :mod:`repro.cluster` / :mod:`repro.similarity` -- k-means/k-medoids/
  soft k-means, the potential-game engine, and the three learning-task
  similarities;
* :mod:`repro.meta` -- MAML, GTMC, TAML, CTML, and the learning task
  tree;
* :mod:`repro.assignment` -- the Kuhn-Munkres solver, matching rate,
  PPI, and the UB/LB/KM/GGPSO baselines;
* :mod:`repro.sc` -- the batch spatial-crowdsourcing simulator;
* :mod:`repro.data` -- seeded Porto/Didi/Gowalla/Foursquare-like
  generators;
* :mod:`repro.pipeline` -- offline training, online prediction, and the
  experiment runners behind every table and figure.

See ``examples/quickstart.py`` for a complete, runnable walkthrough.
"""

__version__ = "1.0.0"

from repro.pipeline.config import AssignmentConfig, ExperimentConfig, PredictionConfig
from repro.pipeline.experiment import evaluate_prediction, run_assignment
from repro.pipeline.training import train_predictor

__all__ = [
    "__version__",
    "ExperimentConfig",
    "PredictionConfig",
    "AssignmentConfig",
    "train_predictor",
    "evaluate_prediction",
    "run_assignment",
]
