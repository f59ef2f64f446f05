"""repro: reproduction of "Optimizing Offload Performance in
Heterogeneous MPSoCs" (Colagrande & Benini, DATE 2024).

The package provides, bottom-up:

- :mod:`repro.sim` — a deterministic discrete-event simulation kernel;
- :mod:`repro.mem`, :mod:`repro.noc` — memory subsystem and interconnect
  models (including the paper's multicast extension);
- :mod:`repro.host`, :mod:`repro.cluster`, :mod:`repro.soc` — the
  Manticore-class MPSoC: CVA6-like host, Snitch-like compute clusters,
  and the credit-counter synchronization unit;
- :mod:`repro.kernels` — device kernels (DAXPY and friends) with
  functional NumPy execution plus calibrated timing models;
- :mod:`repro.runtime` — baseline and extended (multicast + HW sync)
  offload runtimes;
- :mod:`repro.core` — the paper's contribution: offload measurement
  sweeps, the analytic runtime model (Eq. 1), MAPE validation (Eq. 2),
  and the offload decision solver (Eq. 3);
- :mod:`repro.analysis` — fitting, tables and ASCII charts used by the
  experiments to regenerate every figure in the paper;
- :mod:`repro.experiments` — one function per paper artifact,
  extension and ablation, each behind a ``repro`` command.

Quickstart::

    from repro import ManticoreSystem, SoCConfig, offload_daxpy

    system = ManticoreSystem(SoCConfig(num_clusters=32))
    result = offload_daxpy(system, n=1024, num_clusters=8)
    print(result.runtime_cycles)
"""

from repro.core.decision import (
    FabricDecision,
    FabricOption,
    OffloadDecision,
    choose_fabric,
    min_clusters_for_deadline,
)
from repro.core.mape import mape, mape_table
from repro.core.model import (
    OffloadModel,
    PAPER_DAXPY_MODEL,
    TileClassModel,
    fit_class_models,
)
from repro.core.offload import (
    HostRunResult,
    OffloadResult,
    offload,
    offload_daxpy,
    run_on_host,
)
from repro.core.concurrent import (
    ConcurrentJob,
    ConcurrentOffloadResult,
    offload_concurrent,
)
from repro.core.overlap import OverlappedResult, offload_overlapped
from repro.core.tiling import TiledOffloadResult, offload_tiled
from repro.core.cache import SweepCache
from repro.core.executor import SweepExecutor
from repro.core.sweep import SweepPoint, SweepResult, sweep
from repro.energy import EnergyBreakdown, EnergyMeter, PowerBudget
from repro.errors import (
    ConfigError,
    DecisionError,
    KernelError,
    ModelError,
    OffloadError,
    ReproError,
    SimulationError,
)
from repro.kernels.registry import get_kernel, kernel_names
from repro.runtime.protocol import make_runtime
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.tiles import TileClass, TileGroup, get_tile_class

__version__ = "1.0.0"

__all__ = [
    "ConcurrentJob",
    "ConcurrentOffloadResult",
    "ConfigError",
    "EnergyBreakdown",
    "EnergyMeter",
    "HostRunResult",
    "PowerBudget",
    "TiledOffloadResult",
    "DecisionError",
    "FabricDecision",
    "FabricOption",
    "KernelError",
    "ManticoreSystem",
    "ModelError",
    "OffloadDecision",
    "OffloadError",
    "OffloadModel",
    "OffloadResult",
    "OverlappedResult",
    "PAPER_DAXPY_MODEL",
    "ReproError",
    "SimulationError",
    "SoCConfig",
    "SweepCache",
    "SweepExecutor",
    "SweepPoint",
    "SweepResult",
    "TileClass",
    "TileClassModel",
    "TileGroup",
    "choose_fabric",
    "fit_class_models",
    "get_kernel",
    "get_tile_class",
    "kernel_names",
    "make_runtime",
    "mape",
    "mape_table",
    "min_clusters_for_deadline",
    "offload",
    "offload_concurrent",
    "offload_daxpy",
    "offload_overlapped",
    "offload_tiled",
    "run_on_host",
    "sweep",
]
