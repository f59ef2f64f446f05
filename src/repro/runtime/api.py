"""Runtime variant factory, resolving through the strategy registry."""

from __future__ import annotations

from repro.runtime.protocol import OffloadRuntime
from repro.runtime.strategies import resolve_variant
from repro.soc.config import VARIANT_FEATURES
from repro.soc.manticore import ManticoreSystem

#: Variant name → (use_multicast, use_hw_sync).  A live view of the
#: strategy registry (:mod:`repro.runtime.strategies`), kept under its
#: historical name for backwards compatibility; registering a new
#: variant makes it appear here, in ``SoCConfig.for_variant``, and in
#: :func:`make_runtime` at once.
RUNTIME_VARIANTS = VARIANT_FEATURES


def make_runtime(system: ManticoreSystem,
                 variant: str = "auto") -> OffloadRuntime:
    """Build an offload runtime for ``system``.

    ``variant="auto"`` uses every extension the hardware provides (a
    baseline SoC gets the baseline routine, an extended SoC the extended
    one); the explicit names select a registered variant
    (:func:`repro.runtime.strategies.register_variant`), which must be
    supported by the hardware.

    Raises
    ------
    OffloadError
        On unknown variant names or software/hardware mismatches.
    """
    return OffloadRuntime(system, resolve_variant(variant, system.config))
