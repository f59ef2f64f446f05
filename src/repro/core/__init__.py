"""The paper's contribution: offload measurement, modeling, decisions.

- :mod:`repro.core.offload` — run one offloaded job end to end on a
  simulated SoC and measure it;
- :mod:`repro.core.staging` — the shared job-binding lifecycle every
  launch shape (plain, host, overlapped, concurrent) stages through;
- :mod:`repro.core.sweep` — measure grids of (kernel, N, M, variant)
  points, the raw material of every figure;
- :mod:`repro.core.executor` — in-process sweep execution: cache,
  batch planner, then simulation, with results in grid order;
- :mod:`repro.core.cache` — content-addressed memoization of measured
  sweep points (keyed on config digest + job coordinates);
- :mod:`repro.core.model` — the analytic runtime model (Eq. 1,
  generalized) and its least-squares fit;
- :mod:`repro.core.mape` — the validation metric (Eq. 2);
- :mod:`repro.core.decision` — the offload decision problem (Eq. 3 and
  extensions: deadline feasibility, host-vs-accelerator choice, energy).
"""

from repro.core.cache import SweepCache
from repro.core.decision import OffloadDecision, min_clusters_for_deadline
from repro.core.executor import SweepExecutor
from repro.core.mape import mape, mape_table
from repro.core.model import OffloadModel, PAPER_DAXPY_MODEL
from repro.core.offload import OffloadResult, offload, offload_daxpy
from repro.core.staging import JobBinding, JobRequest
from repro.core.sweep import SweepPoint, SweepResult, sweep

__all__ = [
    "JobBinding",
    "JobRequest",
    "OffloadDecision",
    "OffloadModel",
    "OffloadResult",
    "PAPER_DAXPY_MODEL",
    "SweepCache",
    "SweepExecutor",
    "SweepPoint",
    "SweepResult",
    "mape",
    "mape_table",
    "min_clusters_for_deadline",
    "offload",
    "offload_daxpy",
    "sweep",
]
