"""Evaluation harness reproducing Sections 6–9 of the paper.

One module per experiment:

* :mod:`repro.experiments.analytical` — Figures 1–3 (cost-model curves).
* :mod:`repro.experiments.exp1` — Experiment 1: Table 3 and Figure 4.
* :mod:`repro.experiments.exp2` — Experiment 2: Figure 5.
* :mod:`repro.experiments.exp3` — Experiment 3: Figures 6–11.
* :mod:`repro.experiments.exp4_faults` — Experiment 4: fault degradation.
* :mod:`repro.experiments.exp5_service` — Experiment 5: multi-join
  scheduling policies on a shared tape library.
* :mod:`repro.experiments.exp6_hsm` — Experiment 6: the partition
  cache's payoff over cache size and workload skew.

Every experiment accepts a ``scale`` knob that shrinks the relation sizes
while preserving the ratios the paper says determine the outcome
("the outcome of this experiment is determined by the relative values of
M, D and |R|, not the absolute values used" — Section 8), so tests can run
the full suite quickly and benchmarks can run it at paper scale.
"""

from repro.experiments.config import (
    BASE_TAPE,
    FAST_TAPE,
    SLOW_TAPE,
    ExperimentScale,
    TAPE_SPEEDS,
)
from repro.experiments.analytical import figure1, figure2, figure3
from repro.experiments.exp1 import run_experiment1, run_figure4
from repro.experiments.exp2 import run_experiment2
from repro.experiments.exp3 import run_experiment3
from repro.experiments.exp4_faults import run_experiment4
from repro.experiments.exp5_service import run_experiment5
from repro.experiments.exp6_hsm import run_experiment6

__all__ = [
    "BASE_TAPE",
    "ExperimentScale",
    "FAST_TAPE",
    "SLOW_TAPE",
    "TAPE_SPEEDS",
    "figure1",
    "figure2",
    "figure3",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "run_experiment4",
    "run_experiment5",
    "run_experiment6",
    "run_figure4",
]
