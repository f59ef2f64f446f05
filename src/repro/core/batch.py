"""Batched sweep timing: predict whole N-columns from one calibration.

A sweep grid re-runs the same offload protocol over and over with only
the problem size N changing: the host setup, descriptor store,
completion arming, doorbell distribution and cluster wake/decode
sequence are all independent of N, and once the start barrier releases,
every downstream cycle (DMA chains on the shared channels, the
closed-form compute phase, the completion stores and the host's
poll/WFI observation) is a deterministic integer function of the slice
shapes.  :class:`BatchPlanner` exploits that: for every group of grid
points sharing an offload width M it simulates **one** calibration
point through the event engine, extracts the N-independent prefix from
its :class:`~repro.runtime.trace.OffloadTrace`, and times every other N
of the group as NumPy array arithmetic — bit-identical to the event
engine, a property the planner *proves* per group before using it:

- **structural preconditions** — only the four paper protocol variants
  (exact strategy types), a full ``0..M-1`` cluster range, non-empty
  DMA transfers for every working slice, and shapes that fit TCDM and
  main memory are predictable; anything else stays on the event engine;
- **residual check** — the closed form is evaluated at the calibration
  N and compared against the *measured* trace, marker for marker
  (per-cluster DMA/compute/completion cycles, end cycle, every phase);
  any mismatch falls the whole group back;
- **ambiguity fallbacks** — completion schedules the algebra cannot
  order against the host's first poll read or WFI entry (same-cycle
  races) are refused point by point.

``REPRO_NAIVE_BATCH`` disables the planner entirely; the A/B property
suite (``tests/property/test_batch_identity.py``) asserts both paths
return equal :class:`~repro.core.sweep.SweepPoint` streams.

The M axis: affine prefix prediction
------------------------------------
One calibration per (variant, M) group still leaves the M axis paying
one full event simulation per offload width — on a Fig.-1 shaped grid
(one N, M = 1..32) that is *every* point.  But the prefix itself is
structured: the paper's runtime model (Eq. 1) treats dispatch cost as
affine in the cluster count, and the two shipped dispatch strategies
declare exactly where that holds
(:attr:`~repro.runtime.strategies.DispatchStrategy
.affine_dispatch_min_m`: sequential stores from M = 1, multicast from
M = 2 — its single-cluster case is a plain store off the line).  So
instead of calibrating every M group, the planner event-simulates
**two anchor** M values, fits each prefix field as an integer-affine
function of M (non-integer slope → refuse), verifies the fitted line
*residual-exactly* against a third held-out M — a full
marker-for-marker :func:`matches_trace` check, not just the prefix —
and synthesizes the prefix for every other M in the anchor span
closed-form.  Any failure (anchor residual, non-affine fit, holdout
mismatch) falls that sweep back to per-group calibration; M values
outside the fitted span or below the declared domain are calibrated
per group as before.  ``REPRO_NAIVE_MPREDICT`` restores the
one-calibration-per-group path bit-for-bit.

The calibration store
---------------------
Prefixes and fitted M-models are pure functions of
(config digest, kernel, resolved variant, scalars, seed) — N never
enters — so :class:`~repro.core.cache.SweepCache` content-addresses
them persistently (:func:`~repro.core.cache.calibration_key`, schema
versioned).  A warm store lets a sweep over *new* problem sizes skip
calibration entirely and go straight to array algebra: the planner
stores every residual-validated per-M prefix and every
holdout-validated M-model, and consults the store before simulating.

Why the tail is a closed form
-----------------------------
All M clusters resume from the start fabric barrier on the same cycle
``T_rel`` in cluster-id order, so the shared read channel serves their
input DMAs back to back: ``din_i = T_rel + dma_setup + Σ ceil(bytes_in_j
/ read_width)`` over working clusters ``j ≤ i``.  The compute phase is
the barrier's closed-form crossing (wake + max per-core cycles +
latency).  Output DMAs commit in ``(compute_done, cluster_id)`` order
and chain on the write channel: with ``C`` the running sum of write
cycles ``w``, they finish at ``C + max-accumulate(max(issue − (C − w),
0))``.  Completion is either the serial AMO unit (increments served in
``(signal, cluster_id)`` order, ``s`` cycles each, the ``k``-th done at
``(k+1)·s + max-accumulate(max(arrival_k − k·s, 0))``, then the host's
analytic poll schedule) or the sync unit's credit counter (threshold
match on the last delivery, IRQ after the wire + raise latency, WFI
wake).  Every term is an integer from the config, and both chains are
max-plus scans, so :func:`predict_grid` times a batch of ``(N, M,
prefix)`` rows in one NumPy evaluation: rows padded to the widest M,
masks for ``cluster < M`` and non-empty slices, padded clusters sorted
last, empty ones signalling at ``T_rel``.  The planner runs one
evaluation per sweep call and tile class; :func:`predict_point` is its
one-row case, used by the residual check.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy

from repro import flags
from repro.core.cache import calibration_key
from repro.core.sweep import SweepPoint
from repro.errors import ConfigError, KernelError, OffloadError
from repro.kernels.base import Kernel, split_range
from repro.kernels.registry import get_kernel
from repro.runtime.strategies import (
    AmoPollCompletion,
    MulticastDispatch,
    SequentialStoreDispatch,
    SyncUnitCompletion,
    VariantSpec,
    get_variant,
    variant_for_features,
)
from repro.soc.config import SoCConfig

if typing.TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.cache import SweepCache
    from repro.runtime.trace import OffloadTrace
    from repro.soc.pool import SystemPool
    from repro.soc.tiles import ResolvedTile

#: Main-memory slack the conservative fit check keeps free: descriptor
#: slot (8 words minimum, 64-byte aligned), completion flag, and
#: allocation padding, rounded up generously.
_MEMORY_SLACK_BYTES = 4096

#: Dispatch strategies whose doorbell schedule the planner can prove
#: N-independent (exact types — subclasses may override timing).
_PROVABLE_DISPATCH = (SequentialStoreDispatch, MulticastDispatch)

#: Completion strategies the tail algebra models (exact types).
_PROVABLE_COMPLETION = (AmoPollCompletion, SyncUnitCompletion)


@dataclasses.dataclass(frozen=True)
class _Prefix:
    """The N-independent head of one (config, variant, M) group.

    Extracted from a calibration offload's trace: absolute cycles of
    the host-side markers plus ``release_cycle``, the cycle every
    participating cluster resumes from the start fabric barrier
    (``max(decoded) + arrival latency + release latency``).
    """

    start_cycle: int
    dispatch_start: int
    dispatch_done: int
    release_cycle: int

    def fields(self) -> typing.Tuple[int, int, int, int]:
        """The prefix as an ordered tuple (the M-model's field order)."""
        return (self.start_cycle, self.dispatch_start,
                self.dispatch_done, self.release_cycle)


@dataclasses.dataclass(frozen=True)
class MPrefixModel:
    """Affine-in-M model of one (config, kernel, variant)'s prefix.

    Each :class:`_Prefix` field is ``base[i] + slope[i] * (m - m_lo)``
    with integer slopes — the fit refuses anything else, because
    event-engine cycles are integers and a fractional slope means the
    claimed affinity is simply false.  The model only speaks for
    ``max(min_m, m_lo) <= m <= m_hi``: ``min_m`` is the strategy's
    declared affine domain and ``[m_lo, m_hi]`` the anchor span, so
    every synthesized prefix is an *interpolation* between
    residual-checked calibrations, never an extrapolation past them.
    """

    min_m: int
    m_lo: int
    m_hi: int
    base: typing.Tuple[int, int, int, int]
    slope: typing.Tuple[int, int, int, int]

    def predict(self, m: int) -> typing.Optional[_Prefix]:
        """The synthesized prefix at ``m``, or ``None`` outside range."""
        if m < self.min_m or m < self.m_lo or m > self.m_hi:
            return None
        delta = m - self.m_lo
        start, dispatch_start, dispatch_done, release = (
            b + s * delta for b, s in zip(self.base, self.slope))
        return _Prefix(start_cycle=start, dispatch_start=dispatch_start,
                       dispatch_done=dispatch_done, release_cycle=release)


def fit_prefix_model(min_m: int, m_lo: int, prefix_lo: _Prefix,
                     m_hi: int,
                     prefix_hi: _Prefix) -> typing.Optional[MPrefixModel]:
    """Fit the affine M-model through two anchor prefixes.

    ``None`` when the anchors coincide or any field's slope is not an
    exact integer — a fractional slope cannot reproduce integer cycle
    counts, so the affinity claim is already refuted by the anchors
    themselves.  A successful fit is *necessary, not sufficient*:
    callers must still verify the model residual-exactly against a
    held-out third M before trusting it.
    """
    if m_lo >= m_hi:
        return None
    span = m_hi - m_lo
    lo = prefix_lo.fields()
    hi = prefix_hi.fields()
    slopes = []
    for value_lo, value_hi in zip(lo, hi):
        diff = value_hi - value_lo
        if diff % span:
            return None
        slopes.append(diff // span)
    return MPrefixModel(min_m=min_m, m_lo=m_lo, m_hi=m_hi,
                        base=lo, slope=tuple(slopes))


def affine_domain(spec: VariantSpec) -> typing.Optional[int]:
    """The M floor from which ``spec``'s prefix is declared affine.

    ``None`` unless *both* sides declare: the dispatch strategy an
    affine doorbell schedule (with its domain floor) and the completion
    strategy an M-independent arming fragment.  The declarations ride
    on the exact strategy types :func:`resolve_spec` already enforces,
    so a subclass overriding timing never reaches this layer.
    """
    floor = type(spec.dispatch).affine_dispatch_min_m
    if floor is None or not type(spec.completion).prefix_affine_in_m:
        return None
    return floor


# ----------------------------------------------------------------------
# Calibration-store payloads
# ----------------------------------------------------------------------
_PREFIX_KEYS = ("start_cycle", "dispatch_start", "dispatch_done",
                "release_cycle")


def encode_prefix(prefix: _Prefix) -> typing.Dict[str, int]:
    """JSON payload of one validated per-M dispatch prefix."""
    return dict(zip(_PREFIX_KEYS, prefix.fields()))


def decode_prefix(payload: typing.Optional[typing.Mapping[str, typing.Any]]
                  ) -> typing.Optional[_Prefix]:
    """Rebuild a stored prefix; ``None`` on any shape/type mismatch."""
    if payload is None:
        return None
    values = [payload.get(key) for key in _PREFIX_KEYS]
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        return None
    return _Prefix(*values)


def encode_mmodel(model: MPrefixModel) -> typing.Dict[str, typing.Any]:
    """JSON payload of one holdout-validated affine M-model."""
    return {"min_m": model.min_m, "m_lo": model.m_lo, "m_hi": model.m_hi,
            "base": list(model.base), "slope": list(model.slope)}


def decode_mmodel(payload: typing.Optional[
        typing.Mapping[str, typing.Any]]) -> typing.Optional[MPrefixModel]:
    """Rebuild a stored M-model; ``None`` on any shape/type mismatch."""
    if payload is None:
        return None

    def ints(value: typing.Any, count: int) -> typing.Optional[
            typing.Tuple[int, ...]]:
        if (not isinstance(value, (list, tuple)) or len(value) != count
                or any(not isinstance(v, int) or isinstance(v, bool)
                       for v in value)):
            return None
        return tuple(value)

    scalars = ints([payload.get("min_m"), payload.get("m_lo"),
                    payload.get("m_hi")], 3)
    base = ints(payload.get("base"), 4)
    slope = ints(payload.get("slope"), 4)
    if scalars is None or base is None or slope is None:
        return None
    if scalars[1] >= scalars[2]:
        return None
    return MPrefixModel(min_m=scalars[0], m_lo=scalars[1],
                        m_hi=scalars[2], base=base, slope=slope)


@dataclasses.dataclass(frozen=True)
class _Prediction:
    """One predicted grid point plus the markers the residual check needs.

    Per-cluster entries are ``None`` for clusters whose slice is empty,
    mirroring :class:`~repro.runtime.trace.ClusterPhases`.
    """

    point: SweepPoint
    end_cycle: int
    dma_in_done: typing.Tuple[typing.Optional[int], ...]
    compute_done: typing.Tuple[typing.Optional[int], ...]
    dma_out_done: typing.Tuple[typing.Optional[int], ...]
    completion_signalled: typing.Tuple[int, ...]


def resolve_spec(config: SoCConfig,
                 variant: str) -> typing.Optional[VariantSpec]:
    """The variant spec the planner can prove, or ``None``.

    ``None`` means the whole sweep stays on the event engine: unknown
    variant names and software/hardware mismatches must surface the
    event path's own :class:`~repro.errors.OffloadError`, and strategy
    types outside the four paper protocols have timing the closed form
    has not modelled.
    """
    try:
        if variant == "auto":
            spec = variant_for_features(config.multicast, config.hw_sync)
        else:
            spec = get_variant(variant)
    except OffloadError:
        return None
    if spec.use_multicast and not config.multicast:
        return None
    if spec.use_hw_sync and not config.hw_sync:
        return None
    if type(spec.dispatch) not in _PROVABLE_DISPATCH:
        return None
    if type(spec.completion) not in _PROVABLE_COMPLETION:
        return None
    return spec


def point_provable(config: SoCConfig, kernel: Kernel, n: int, m: int,
                   scalars: typing.Mapping[str, float],
                   tile: typing.Optional["ResolvedTile"] = None) -> bool:
    """Whether one (N, M) point's tail is safely predictable.

    Refuses anything whose event-engine run would raise (invalid shape,
    TCDM or main-memory overflow, a tile class without a rate for this
    kernel — the event path must own the error) and any slice shape the
    DMA-chain algebra cannot order (zero-byte transfers skip the
    channel reservation entirely, changing the arbitration order the
    closed form assumes).  ``tile`` is the resolved tile the point runs
    on; ``None`` reads the homogeneous config knobs directly.
    """
    try:
        kernel.validate(n, scalars)
        slices = split_range(n, m)
    except KernelError:
        return False
    tcdm_bytes = config.tcdm_bytes
    if tile is not None:
        tcdm_bytes = tile.tcdm_bytes
        try:
            tile.timing_for(kernel.name)
        except ConfigError:
            return False
    largest = slices[0]
    if kernel.slice_tcdm_bytes(largest.lo, largest.hi, n) > tcdm_bytes:
        return False
    staged = sum(8 * kernel.input_length(name, n)
                 for name in kernel.input_names)
    staged += sum(8 * kernel.output_length(name, n, m)
                  for name in kernel.output_names
                  if kernel.output_alias(name) is None)
    if staged + _MEMORY_SLACK_BYTES > config.main_memory_bytes:
        return False
    for work in slices:
        if work.empty:
            continue
        if kernel.slice_bytes_in(work.lo, work.hi, n) <= 0:
            return False
        if kernel.slice_bytes_out(work.lo, work.hi, n) <= 0:
            return False
    return True


def extract_prefix(config: SoCConfig, trace: "OffloadTrace", m: int,
                   first: int = 0) -> typing.Optional[_Prefix]:
    """Pull the N-independent prefix out of a calibration trace.

    ``None`` if the trace does not show the contiguous
    ``first..first+M-1`` cluster range the algebra assumes (partial
    doorbell delivery, a launch outside the expected tile group).
    """
    if [c.cluster_id for c in trace.clusters] != list(range(first,
                                                           first + m)):
        return None
    release = (max(c.decoded for c in trace.clusters)
               + config.fabric_barrier_arrival_latency
               + config.fabric_barrier_release_latency)
    return _Prefix(start_cycle=trace.start_cycle,
                   dispatch_start=trace.dispatch_start,
                   dispatch_done=trace.dispatch_done,
                   release_cycle=release)


@dataclasses.dataclass(frozen=True)
class _Grid:
    """The tail algebra evaluated for R rows padded to the widest M.

    Row-shaped fields are ``(R,)``; cluster-shaped ones are ``(R, W)``
    and only meaningful where ``working`` (non-empty slice: the DMA and
    compute markers) or ``cluster < m`` (the completion signal) holds.
    ``ok`` is ``False`` for rows whose completion schedule is ambiguous.
    """

    kernel_name: str
    variant: str
    n: numpy.ndarray
    m: numpy.ndarray
    ok: numpy.ndarray
    phases: typing.Tuple[numpy.ndarray, ...]
    end: numpy.ndarray
    working: numpy.ndarray
    dma_in_done: numpy.ndarray
    compute_done: numpy.ndarray
    dma_out_done: numpy.ndarray
    completion: numpy.ndarray

    def points(self, rows: slice = slice(None),
               ) -> typing.List[typing.Optional[SweepPoint]]:
        """One :class:`SweepPoint` per row of ``rows`` (all by default),
        ``None`` where refused."""
        names = ("setup", "dispatch", "completion_wait", "sync_overhead",
                 "total")
        return [SweepPoint(kernel_name=self.kernel_name, n=n, num_clusters=m,
                           variant=self.variant, runtime_cycles=phases[-1],
                           phases=dict(zip(names, phases)))
                if ok else None
                for ok, n, m, *phases in zip(
                    self.ok[rows].tolist(), self.n[rows].tolist(),
                    self.m[rows].tolist(),
                    *(column[rows].tolist() for column in self.phases))]

    def prediction(self, row: int) -> typing.Optional[_Prediction]:
        """Row ``row`` with the per-cluster markers the residual check
        (:func:`matches_trace`) compares; ``None`` where refused."""
        if not self.ok[row]:
            return None
        m = int(self.m[row])

        def markers(values: numpy.ndarray) -> typing.Tuple:
            return tuple(numpy.where(self.working[row, :m],
                                     values[row, :m], None).tolist())

        return _Prediction(
            point=self.points(slice(row, row + 1))[0], end_cycle=int(self.end[row]),
            dma_in_done=markers(self.dma_in_done),
            compute_done=markers(self.compute_done),
            dma_out_done=markers(self.dma_out_done),
            completion_signalled=tuple(self.completion[row, :m].tolist()))


#: Sort key that places padded clusters after every real one.
_LAST = numpy.iinfo(numpy.int64).max // 4


def predict_grid(config: SoCConfig, kernel: Kernel, spec: VariantSpec,
                 rows: typing.Sequence[typing.Tuple[int, int, _Prefix]],
                 tile: typing.Optional["ResolvedTile"] = None) -> _Grid:
    """Time ``(n, m, prefix)`` rows with the closed-form tail algebra.

    One NumPy evaluation for the whole batch: rows are padded to the
    widest M, cluster ``c`` of a row is real when ``c < m`` and working
    when its slice is non-empty.  Rows whose completion schedule is
    ambiguous against the host's observation (same-cycle races the
    event engine resolves through queue internals the algebra does not
    model) come back with ``ok`` false; callers fall them back to the
    event engine.

    ``tile`` supplies the per-tile-class knobs (core count, DMA setup,
    wake/barrier latencies, kernel compute rates); ``None`` reads the
    homogeneous config knobs, the pre-fabric behaviour.  Either way the
    residual check (:func:`matches_trace`) guards the algebra against
    the event engine, so a knob this form mis-models falls the group
    back instead of diverging.
    """
    if tile is None:
        cores = config.cores_per_cluster
        dma_setup = config.dma_setup_cycles
        worker_wake = config.worker_wake_latency
        barrier = config.barrier_latency
        timing = None
    else:
        cores = tile.cores_per_tile
        dma_setup = tile.dma_setup_cycles
        worker_wake = tile.worker_wake_latency
        barrier = tile.barrier_latency
        timing = tile.timing_for(kernel.name)
    n, m = numpy.array([row[:2] for row in rows], dtype=numpy.int64).T
    start, dispatch_start, dispatch_done, release = numpy.array(
        [row[2].fields() for row in rows], dtype=numpy.int64).T
    cid = numpy.arange(int(m.max()))
    in_range = cid < m[:, None]
    row_ids = numpy.arange(m.size)[:, None]

    # split_range's static block schedule: the first n mod m slices
    # take one extra element, so working clusters are a prefix.
    base, extra = numpy.divmod(n, m)
    elems = numpy.where(in_range, base[:, None] + (cid < extra[:, None]), 0)
    working = elems > 0
    lo = (cid * base[:, None] + numpy.minimum(cid, extra[:, None]))[working]
    row_n = numpy.broadcast_to(n[:, None], elems.shape)[working]
    bounds = (lo.tolist(), (lo + elems[working]).tolist(), row_n.tolist())

    def cells(method) -> numpy.ndarray:
        return numpy.fromiter(map(method, *bounds), dtype=numpy.int64,
                              count=lo.size)

    # Input DMA: every working cluster issues its read reservation at
    # release + dma_setup; the shared channel serves them in cluster-id
    # order, so finishes are one cumulative sum along the row.
    read = numpy.zeros_like(elems)
    read[working] = -(-cells(kernel.slice_bytes_in)
                      // config.mem_read_width_bytes)
    din = release[:, None] + dma_setup + numpy.cumsum(read, axis=1)

    # Compute: the barrier's closed-form crossing.  Per-core counts are
    # q+1 (the first e mod cores workers) and q, so the phase maximum
    # needs at most two vectorized timing evaluations per cluster.
    # A tile rate ignores N; the kernel's own rate may not (gemv), so
    # it is evaluated once per distinct N.
    def compute_cycles(elements: numpy.ndarray) -> numpy.ndarray:
        if timing is not None:
            return timing.cycles_array(elements)
        cycles = numpy.empty_like(elements)
        for value in set(n.tolist()):
            same_n = row_n == value
            cycles[same_n] = kernel.compute_cycles_array(elements[same_n],
                                                         value)
        return cycles

    q, r = numpy.divmod(elems[working], cores)
    cyc_lo, cyc_hi = compute_cycles(q), compute_cycles(q + 1)
    compute_done = numpy.full_like(elems, _LAST)
    compute_done[working] = (
        din[working] + worker_wake + barrier
        + numpy.where(r > 0, numpy.maximum(cyc_hi, cyc_lo), cyc_lo))

    # Output DMA: reservations commit in (compute_done, cluster_id)
    # order (a stable sort; idle clusters sort last) and chain on the
    # write channel — a max-plus scan: with C the running sum of write
    # cycles w, finish = C + max-accumulate(max(issue - (C - w), 0)).
    order = numpy.argsort(compute_done, axis=1, kind="stable")
    write = numpy.zeros_like(elems)
    write[working] = -(-cells(kernel.slice_bytes_out)
                       // config.mem_write_width_bytes)
    w = write[row_ids, order]
    issue = compute_done[row_ids, order] + dma_setup
    total = numpy.cumsum(w, axis=1)
    dout = numpy.empty_like(elems)
    dout[row_ids, order] = total + numpy.maximum.accumulate(
        numpy.maximum(issue - (total - w), 0), axis=1)

    # Completion-store commit cycle per cluster: empty slices signal
    # straight from the start-barrier release, working ones after their
    # write-back lands; padded clusters never signal.
    signal = numpy.where(working, dout,
                         numpy.where(in_range, release[:, None], _LAST))
    port_occ = config.noc_cluster_port_occupancy
    req = config.noc_request_latency
    resp = config.noc_response_latency

    if isinstance(spec.completion, AmoPollCompletion):
        # The memory's AMO unit services increments in (signal, cluster)
        # order, one per s cycles — the second max-plus scan:
        # finish_k = (k+1)s + max-accumulate(max(arrival_k - ks, 0)).
        # The host's poll schedule is the analytic fast-forward form.
        service = config.noc_amo_service_cycles
        order = numpy.argsort(signal, axis=1, kind="stable")
        arrival = signal[row_ids, order] + port_occ + req
        k = numpy.arange(cid.size) * service
        finish = k + service + numpy.maximum.accumulate(
            numpy.maximum(arrival - k, 0), axis=1)
        completion = numpy.empty_like(elems)
        completion[row_ids, order] = finish + resp
        crossing_write = finish[row_ids[:, 0], m - 1]
        read0 = dispatch_done + config.noc_load_occupancy + req
        period = (config.noc_load_occupancy + req + resp
                  + config.host_poll_gap_cycles)
        # The threshold may cross before (or on the very cycle) the
        # first poll read observes the flag — the first-iteration
        # path, which the algebra does not model.
        ok = crossing_write > read0
        end = read0 + ((crossing_write - read0) // period + 1) * period + resp
    else:
        # Sync unit: posted increments issue one port-occupancy after
        # commit; the threshold matches on the last delivery and the
        # IRQ raises after the raise latency.  WFI always pays the wake
        # latency from whichever of (raise, entry) comes last.
        completion = signal + port_occ
        raise_cycle = (numpy.where(in_range, completion, 0).max(axis=1)
                       + req + config.syncunit_irq_latency)
        # Same-cycle IRQ-vs-WFI entry: ordering depends on queue
        # internals, not on the algebra's inputs.
        ok = raise_cycle != dispatch_done
        end = (numpy.maximum(raise_cycle, dispatch_done)
               + config.host_wfi_wake_latency)

    last_signal = numpy.where(in_range, completion, 0).max(axis=1)
    phases = (dispatch_start - start, dispatch_done - dispatch_start,
              end - dispatch_done, end - last_signal, end - start)
    return _Grid(kernel_name=kernel.name, variant=spec.name, n=n, m=m,
                 ok=ok & working.any(axis=1), phases=phases,
                 end=end, working=working, dma_in_done=din,
                 compute_done=compute_done, dma_out_done=dout,
                 completion=completion)


def predict_point(config: SoCConfig, kernel: Kernel, spec: VariantSpec,
                  prefix: _Prefix, n: int, m: int,
                  tile: typing.Optional["ResolvedTile"] = None,
                  ) -> typing.Optional[_Prediction]:
    """Time one grid point: the one-row case of :func:`predict_grid`,
    with the per-cluster markers; ``None`` when ambiguous."""
    return predict_grid(config, kernel, spec, [(n, m, prefix)],
                        tile).prediction(0)


def matches_trace(prediction: _Prediction, trace: "OffloadTrace",
                  measured: SweepPoint, first: int = 0) -> bool:
    """Whether a prediction reproduces a measured point exactly.

    This is the per-group residual check: evaluated at the calibration
    N, marker for marker.  Any drift between the algebra and the event
    engine — a protocol change, a timing constant moved, an arbitration
    order the proof missed — fails here and falls the group back, so
    batched numbers can never silently diverge.  Prediction arrays are
    group-local (slot 0 = cluster ``first``), so trace cluster ids are
    rebased before indexing.
    """
    if prediction.point != measured:
        return False
    if prediction.end_cycle != trace.end_cycle:
        return False
    for cluster in trace.clusters:
        cid = cluster.cluster_id - first
        if cid < 0 or cid >= len(prediction.completion_signalled):
            return False
        if prediction.dma_in_done[cid] != cluster.dma_in_done:
            return False
        if prediction.compute_done[cid] != cluster.compute_done:
            return False
        if prediction.dma_out_done[cid] != cluster.dma_out_done:
            return False
        if prediction.completion_signalled[cid] \
                != cluster.completion_signalled:
            return False
    return True


#: One pending grid point, ``(slot_index, n, m)`` as the executor builds it.
_Entry = typing.Tuple[int, int, int]


@dataclasses.dataclass
class _Call:
    """One :meth:`BatchPlanner.consume` call: its inputs and outcome."""

    config: SoCConfig
    kernel: Kernel
    spec: VariantSpec
    #: Keyword arguments of every calibration ``offload``.
    run: typing.Dict[str, typing.Any]
    first: int
    #: Calibration-store coordinates.
    store: typing.Tuple
    slots: typing.List[typing.Optional[SweepPoint]]
    #: M -> the tile its span runs on (``None``: mixed classes).
    tiles: typing.Dict[int, typing.Optional["ResolvedTile"]] = (
        dataclasses.field(default_factory=dict))
    #: Entries handed back to the event engine.
    remaining: typing.List[_Entry] = dataclasses.field(default_factory=list)
    #: M group -> (trusted prefix, entries the closed form times).
    timed: typing.Dict[int, typing.Tuple[_Prefix, typing.List[_Entry]]] = (
        dataclasses.field(default_factory=dict))
    #: M groups that ran a calibration simulation.
    calibrated: typing.Set[int] = dataclasses.field(default_factory=set)


class BatchPlanner:
    """Times groups of sweep points from single calibration simulations.

    Built per :meth:`~repro.core.executor.SweepExecutor.run` call;
    :meth:`consume` takes the executor's pending list and fills every
    slot it can prove, returning what must still go through the event
    engine.  Counters:

    - ``planned_points`` — slots filled by closed-form prediction;
    - ``calibration_points`` — event-engine simulations the planner ran
      itself (their slots are filled with the *measured* result);
    - ``fallback_points`` — pending points handed back to the event
      engine (structural refusals, residual-check failures, ambiguous
      completion schedules, groups too small to profit);
    - ``prefixes_calibrated`` / ``prefixes_predicted`` — M groups whose
      prefix came from a calibration simulation vs. from the affine
      M-model or the calibration store (no simulation at all);
    - ``mmodels_fitted`` — affine M-models fitted *and* holdout-
      validated this run;
    - ``holdout_fallbacks`` — M-model fit attempts abandoned (anchor
      residual failure, non-integer slope, or holdout mismatch), each
      falling the affected groups back to per-group calibration;
    - ``store_hits`` / ``store_misses`` — calibration-store lookups
      (per-M prefixes and M-models) against the executor's
      :class:`~repro.core.cache.SweepCache`.
    """

    def __init__(self, pool: "SystemPool",
                 cache: typing.Optional["SweepCache"] = None) -> None:
        self.pool = pool
        self.cache = cache
        self.planned_points = 0
        self.calibration_points = 0
        self.fallback_points = 0
        self.prefixes_calibrated = 0
        self.prefixes_predicted = 0
        self.mmodels_fitted = 0
        self.holdout_fallbacks = 0
        self.store_hits = 0
        self.store_misses = 0

    def consume(self, config: SoCConfig, kernel_name: str, variant: str,
                scalars: typing.Optional[typing.Mapping[str, float]],
                seed: int, verify: bool, pending: typing.Sequence[_Entry],
                slots: typing.List[typing.Optional[SweepPoint]],
                tile_group: typing.Optional[str] = None,
                ) -> typing.List[_Entry]:
        """Fill predictable ``slots`` entries; return the leftovers.

        ``pending`` holds ``(slot_index, n, m)`` triples exactly as the
        executor builds them; the returned list preserves their relative
        order so the event engine visits leftovers in grid order.

        Per M group the prefix comes from the cheapest trustworthy
        source: a stored per-M prefix (no simulation), a stored or
        freshly fitted-and-holdout-checked affine M-model (no
        simulation), or a calibration simulation (which also
        residual-checks the tail algebra and feeds the store).
        ``REPRO_NAIVE_MPREDICT`` pins every group to the last source.
        Once every group's prefix is resolved, all entries sharing a
        tile class are timed by one :func:`predict_grid` evaluation.

        ``tile_group`` names the fabric group the sweep targets; the
        planner then proves and predicts with that group's tile class
        (its TCDM, core count and kernel rates) and calibrates through
        ``offload(tile_group=...)``.  Without a group, each offload
        width M spans clusters ``0..M-1``: a span of one uniform tile
        class is proved against that class, a mixed span falls back to
        the event engine point by point.
        """
        from repro.core.staging import resolve_scalars

        spec = resolve_spec(config, variant)
        if spec is None:
            self.fallback_points += len(pending)
            return list(pending)
        kernel = get_kernel(kernel_name)
        resolved = resolve_scalars(kernel, scalars)
        mpredict = not flags.naive_mpredict()
        group = (config.tile_group(tile_group)
                 if tile_group is not None else None)
        # The store speaks the *resolved* variant and scalars, so
        # "auto" and the explicit name (or default and explicit
        # scalars) share calibration entries.  The group name joins the
        # coordinates because one config digest covers every group of a
        # heterogeneous fabric.
        call = _Call(config, kernel, spec,
                     dict(scalars=scalars, variant=variant, seed=seed,
                          verify=verify, tile_group=tile_group),
                     group.start if group is not None else 0,
                     (config, kernel.name, spec.name, resolved, seed,
                      tile_group or ""), slots)

        provable_by_m: typing.Dict[int, typing.List[_Entry]] = {}
        for entry in pending:
            m = entry[2]
            if m not in call.tiles:
                # ``None`` means mixed tile classes across clusters
                # 0..M-1: the per-cluster knobs differ mid-span, which
                # the uniform tail algebra does not model.
                call.tiles[m] = (group.tile if group is not None
                                 else config.span_tile(0, m))
            tile = call.tiles[m]
            if tile is not None and point_provable(config, kernel, entry[1],
                                                   m, resolved, tile):
                provable_by_m.setdefault(m, []).append(entry)
            else:
                self.fallback_points += 1
                call.remaining.append(entry)

        prefixes: typing.Dict[int, _Prefix] = {}
        model: typing.Optional[MPrefixModel] = None
        if mpredict:
            for m in provable_by_m:
                stored = self._load_prefix(call.store, m)
                if stored is not None:
                    prefixes[m] = stored
            model = self._load_model(call.store)
            if model is None:
                model = self._fit_model(call, provable_by_m, prefixes)

        for m, provable in provable_by_m.items():
            if m in call.calibrated:
                continue
            prefix = prefixes.get(m)
            if prefix is None and model is not None:
                prefix = model.predict(m)
            if mpredict and prefix is not None:
                self.prefixes_predicted += 1
                call.timed[m] = (prefix, provable)
                continue
            if len(provable) < 2:
                # A lone provable point gains nothing from calibrating
                # itself (and no trusted prefix reached us).
                self.fallback_points += len(provable)
                call.remaining.extend(provable)
                continue
            validated = self._calibrate_group(call, m, provable)
            if mpredict and validated is not None:
                self._store_prefix(call.store, m, validated)

        self._time_rows(call)
        order = {id(entry): rank for rank, entry in enumerate(pending)}
        call.remaining.sort(key=lambda entry: order[id(entry)])
        return call.remaining

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _time_rows(self, call: _Call) -> None:
        """Time every trusted entry: one evaluation per tile class."""
        by_tile: typing.Dict["ResolvedTile", typing.List[
            typing.Tuple[_Entry, _Prefix]]] = {}
        for m, (prefix, members) in call.timed.items():
            by_tile.setdefault(call.tiles[m], []).extend(
                (entry, prefix) for entry in members)
        for tile, rows in by_tile.items():
            grid = predict_grid(call.config, call.kernel, call.spec,
                                [(entry[1], entry[2], prefix)
                                 for entry, prefix in rows], tile)
            for (entry, _prefix), point in zip(rows, grid.points()):
                if point is None:
                    self.fallback_points += 1
                    call.remaining.append(entry)
                else:
                    call.slots[entry[0]] = point
                    self.planned_points += 1

    def _calibrate(self, call: _Call, n: int, m: int):
        """One event-engine simulation, keeping the full trace."""
        from repro.core.offload import offload

        with self.pool.lease(call.config) as system:
            result = offload(system, call.kernel.name, n, m, **call.run)
        self.calibration_points += 1
        return result

    def _calibrate_group(self, call: _Call, m: int,
                         members: typing.List[_Entry],
                         ) -> typing.Optional[_Prefix]:
        """Calibrate one member and residual-check the algebra on it.

        The other members join ``call.timed`` under the calibration's
        prefix when the residual check passes, ``call.remaining``
        otherwise.  Returns the prefix *only* when the check passed —
        i.e. exactly when it is safe to reuse as an M-model anchor or a
        calibration-store entry.
        """
        calibration = min(members, key=lambda entry: entry[0])
        cal_index, cal_n, _m = calibration
        result = self._calibrate(call, cal_n, m)
        self.prefixes_calibrated += 1
        call.calibrated.add(m)
        measured = SweepPoint(
            kernel_name=call.kernel.name, n=cal_n, num_clusters=m,
            variant=result.variant,
            runtime_cycles=result.runtime_cycles,
            phases=result.trace.phase_summary())
        call.slots[cal_index] = measured
        rest = [entry for entry in members if entry is not calibration]

        prefix = (extract_prefix(call.config, result.trace, m, call.first)
                  if result.variant == call.spec.name else None)
        residual = (predict_point(call.config, call.kernel, call.spec,
                                  prefix, cal_n, m, call.tiles[m])
                    if prefix is not None else None)
        if residual is None or not matches_trace(residual, result.trace,
                                                 measured, call.first):
            self.fallback_points += len(rest)
            call.remaining.extend(rest)
            return None
        if rest:
            call.timed[m] = (prefix, rest)
        return prefix

    def _fit_model(self, call: _Call,
                   provable_by_m: typing.Dict[int, typing.List[_Entry]],
                   prefixes: typing.Dict[int, _Prefix],
                   ) -> typing.Optional[MPrefixModel]:
        """Fit and holdout-validate the affine M-model for this sweep.

        Anchors are the smallest and largest in-domain M values of the
        sweep (so every other M interpolates), the holdout the median
        in between.  Each of the three takes a full per-group
        calibration (residual check included) unless the store already
        holds its prefix.  Any failure — out-of-domain strategies, fewer
        than four in-domain M groups (three calibrations would not beat
        per-group calibrating them), anchor residual failure,
        non-integer slope, holdout mismatch — returns ``None`` and the
        sweep stays on per-group calibration.
        """
        floor = affine_domain(call.spec)
        if floor is None:
            return None
        eligible = sorted(m for m in provable_by_m if m >= floor)
        if len(eligible) < 4:
            return None
        m_lo, m_hi = eligible[0], eligible[-1]
        m_mid = eligible[len(eligible) // 2]
        for m in (m_lo, m_mid, m_hi):
            if m in prefixes:
                # A stored prefix is residual-checked evidence already;
                # anchoring on it keeps the fit simulation-free.
                continue
            validated = self._calibrate_group(call, m, provable_by_m[m])
            if validated is None:
                self.holdout_fallbacks += 1
                return None
            prefixes[m] = validated
            self._store_prefix(call.store, m, validated)
        model = fit_prefix_model(floor, m_lo, prefixes[m_lo], m_hi,
                                 prefixes[m_hi])
        if model is None or model.predict(m_mid) != prefixes[m_mid]:
            self.holdout_fallbacks += 1
            return None
        self.mmodels_fitted += 1
        self._store_model(call.store, model)
        return model

    # ------------------------------------------------------------------
    # Calibration store plumbing
    # ------------------------------------------------------------------
    def _load_prefix(self, coords: typing.Tuple,
                     m: int) -> typing.Optional[_Prefix]:
        if self.cache is None:
            return None
        config, kernel_name, variant_name, resolved, seed, group = coords
        payload = self.cache.get_record(
            calibration_key("prefix", config, kernel_name, variant_name,
                            resolved, seed, m=m, tile_group=group),
            "prefix")
        prefix = decode_prefix(payload)
        if prefix is None:
            self.store_misses += 1
            return None
        self.store_hits += 1
        return prefix

    def _store_prefix(self, coords: typing.Tuple, m: int,
                      prefix: _Prefix) -> None:
        if self.cache is None:
            return
        config, kernel_name, variant_name, resolved, seed, group = coords
        self.cache.put_record(
            calibration_key("prefix", config, kernel_name, variant_name,
                            resolved, seed, m=m, tile_group=group),
            "prefix", encode_prefix(prefix))

    def _load_model(self, coords: typing.Tuple
                    ) -> typing.Optional[MPrefixModel]:
        if self.cache is None:
            return None
        config, kernel_name, variant_name, resolved, seed, group = coords
        payload = self.cache.get_record(
            calibration_key("mmodel", config, kernel_name, variant_name,
                            resolved, seed, tile_group=group), "mmodel")
        model = decode_mmodel(payload)
        if model is None:
            self.store_misses += 1
            return None
        self.store_hits += 1
        return model

    def _store_model(self, coords: typing.Tuple,
                     model: MPrefixModel) -> None:
        if self.cache is None:
            return
        config, kernel_name, variant_name, resolved, seed, group = coords
        self.cache.put_record(
            calibration_key("mmodel", config, kernel_name, variant_name,
                            resolved, seed, tile_group=group),
            "mmodel", encode_mmodel(model))
