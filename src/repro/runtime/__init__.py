"""Host-side offload runtimes.

An offload runtime is the software routine the host core executes to
hand a job to the accelerator and wait for its completion.  The paper
co-designs this routine with two hardware extensions; each pairing of a
dispatch strategy and a completion strategy is a registered *variant*
(see :mod:`repro.runtime.strategies`):

================ ================== ============================
variant          dispatch           completion
================ ================== ============================
baseline         sequential stores  AMO flag + host polling
multicast_only   one multicast      AMO flag + host polling
hw_sync_only     sequential stores  credit counter + interrupt
extended         one multicast      credit counter + interrupt
================ ================== ============================

``baseline`` and ``extended`` are the two designs Fig. 1 compares;
the two mixed variants isolate each extension's contribution
(ablation A1 in DESIGN.md).  A new variant is one
:func:`~repro.runtime.strategies.register_variant` call — the factory
(:func:`make_runtime`) and the hardware configurator
(``SoCConfig.for_variant``) resolve through the same registry, and an
:class:`OffloadRuntime` is built from one registered
:class:`~repro.runtime.strategies.VariantSpec`.
"""

from repro.runtime.protocol import OffloadRuntime, make_runtime
from repro.runtime.strategies import (
    AmoPollCompletion,
    CompletionStrategy,
    DispatchStrategy,
    MulticastDispatch,
    SequentialStoreDispatch,
    SyncUnitCompletion,
    VariantSpec,
    get_variant,
    register_variant,
    variant_features,
    variant_for_features,
    variant_names,
)
from repro.runtime.trace import ClusterPhases, OffloadTrace

__all__ = [
    "AmoPollCompletion",
    "ClusterPhases",
    "CompletionStrategy",
    "DispatchStrategy",
    "MulticastDispatch",
    "OffloadRuntime",
    "OffloadTrace",
    "SequentialStoreDispatch",
    "SyncUnitCompletion",
    "VariantSpec",
    "get_variant",
    "make_runtime",
    "register_variant",
    "variant_features",
    "variant_for_features",
    "variant_names",
]
