"""Property tests: the batched tail algebra equals the scalar oracle.

:func:`repro.core.batch.predict_grid` times a whole batch of
``(N, M, prefix)`` rows in one NumPy evaluation: rows padded to the
widest M, the write-channel and AMO chains as max-plus scans.  The
oracle here is the per-point form it replaced — one row at a time,
both chains walked by serial Python loops.  Every row of a mixed batch
must match the oracle, point or refusal, and so must the per-cluster
markers the residual check compares.
"""

import math
import typing

import hypothesis
import hypothesis.strategies as st
import numpy

from repro.core import batch
from repro.core.sweep import SweepPoint
from repro.kernels.base import split_range
from repro.kernels.registry import get_kernel, kernel_names
from repro.runtime.strategies import AmoPollCompletion
from repro.soc.config import SoCConfig
from repro.soc.tiles import SNITCH, VECWIDE, TileGroup

SETTINGS = hypothesis.settings(
    max_examples=150, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])

HOMOGENEOUS = SoCConfig.extended(num_clusters=32)
MIXED = SoCConfig.with_fabric(
    [TileGroup(name="little", tile=SNITCH, count=8),
     TileGroup(name="big", tile=VECWIDE, count=8)],
    multicast=True, hw_sync=True)
VARIANTS = ["baseline", "multicast_only", "hw_sync_only", "extended"]

#: (config, tile, widest M): a resolved homogeneous tile and each
#: group of a little/big fabric.
TILES = [
    (HOMOGENEOUS, HOMOGENEOUS.cluster_span(32).tile, 32),
    (MIXED, MIXED.tile_group("little").tile, 8),
    (MIXED, MIXED.tile_group("big").tile, 8),
]


def oracle(config, kernel, spec, prefix, n, m, tile):
    """The scalar tail algebra: one point, serial chains."""
    cores = tile.cores_per_tile
    dma_setup = tile.dma_setup_cycles
    worker_wake = tile.worker_wake_latency
    barrier = tile.barrier_latency
    # The tile's rate for the kernel, read straight from its table.
    rates = dict(tile.kernel_rates) or {kernel.name: (
        kernel.timing.setup_cycles, kernel.timing.cpe_num,
        kernel.timing.cpe_den)}
    setup, num, den = rates[kernel.name]

    def core_cycles(count):
        # A rate rates the kernel's work unit: an element, or a MAC for
        # gemv's row of n.
        work = count * n if kernel.name == "gemv" else count
        return setup + math.ceil(num * work / den) if work else 0

    slices = split_range(n, m)
    elems = numpy.fromiter((s.hi - s.lo for s in slices),
                           dtype=numpy.int64, count=m)
    ids = numpy.flatnonzero(elems > 0)
    if ids.size == 0:
        return None
    release = prefix.release_cycle

    b_in = numpy.fromiter(
        (kernel.slice_bytes_in(slices[i].lo, slices[i].hi, n) for i in ids),
        dtype=numpy.int64, count=ids.size)
    read_cycles = -(-b_in // config.mem_read_width_bytes)
    din = (release + dma_setup + numpy.cumsum(read_cycles))

    q, r = numpy.divmod(elems[ids], cores)
    cyc_lo = numpy.array([core_cycles(int(c)) for c in q], dtype=numpy.int64)
    cyc_hi = numpy.array([core_cycles(int(c) + 1) for c in q],
                         dtype=numpy.int64)
    phase_max = numpy.where(r > 0, numpy.maximum(cyc_hi, cyc_lo), cyc_lo)
    compute_done = din + worker_wake + phase_max + barrier

    b_out = numpy.fromiter(
        (kernel.slice_bytes_out(slices[i].lo, slices[i].hi, n) for i in ids),
        dtype=numpy.int64, count=ids.size)
    write_cycles = -(-b_out // config.mem_write_width_bytes)
    dout = numpy.empty_like(compute_done)
    next_free = 0
    for k in numpy.lexsort((ids, compute_done)):
        issue = int(compute_done[k]) + dma_setup
        start = issue if issue > next_free else next_free
        next_free = start + int(write_cycles[k])
        dout[k] = next_free

    signal = numpy.full(m, release, dtype=numpy.int64)
    signal[ids] = dout
    port_occ = config.noc_cluster_port_occupancy
    req = config.noc_request_latency
    resp = config.noc_response_latency
    dispatch_done = prefix.dispatch_done

    if isinstance(spec.completion, AmoPollCompletion):
        arrival = signal + port_occ + req
        completion = numpy.empty(m, dtype=numpy.int64)
        finish = 0
        for cid in sorted(range(m), key=lambda c: (int(signal[c]), c)):
            at = int(arrival[cid])
            finish = (at if at > finish else finish) \
                + config.noc_amo_service_cycles
            completion[cid] = finish + resp
        crossing_write = finish
        read0 = dispatch_done + config.noc_load_occupancy + req
        period = (config.noc_load_occupancy + req + resp
                  + config.host_poll_gap_cycles)
        if crossing_write <= read0:
            return None
        success = (crossing_write - read0) // period + 1
        end = read0 + success * period + resp
    else:
        issued = signal + port_occ
        completion = issued.copy()
        raise_cycle = (int(issued.max()) + req
                       + config.syncunit_irq_latency)
        if raise_cycle == dispatch_done:
            return None
        latest = raise_cycle if raise_cycle > dispatch_done else dispatch_done
        end = latest + config.host_wfi_wake_latency

    last_signal = int(completion.max())
    phases = {
        "setup": int(prefix.dispatch_start - prefix.start_cycle),
        "dispatch": int(dispatch_done - prefix.dispatch_start),
        "completion_wait": int(end - dispatch_done),
        "sync_overhead": int(end - last_signal),
        "total": int(end - prefix.start_cycle),
    }
    point = SweepPoint(
        kernel_name=kernel.name, n=n, num_clusters=m, variant=spec.name,
        runtime_cycles=phases["total"], phases=phases)

    def full(values):
        out: typing.List[typing.Optional[int]] = [None] * m
        for slot, cid in enumerate(ids):
            out[int(cid)] = int(values[slot])
        return tuple(out)

    return batch._Prediction(
        point=point, end_cycle=int(end),
        dma_in_done=full(din), compute_done=full(compute_done),
        dma_out_done=full(dout),
        completion_signalled=tuple(int(c) for c in completion))


def boundary(config, spec, prediction):
    """The ``dispatch_done`` at which ``prediction``'s completion
    schedule becomes ambiguous (it does not depend on dispatch_done)."""
    last = max(prediction.completion_signalled)
    if isinstance(spec.completion, AmoPollCompletion):
        # crossing write == first poll read
        return (last - config.noc_response_latency
                - config.noc_load_occupancy - config.noc_request_latency)
    # IRQ raise == WFI entry
    return last + config.noc_request_latency + config.syncunit_irq_latency


@st.composite
def batches(draw):
    """A tile, a variant, a kernel and a mixed-(N, M) batch of rows;
    some rows sit on or next to an ambiguity boundary."""
    config, tile, widest = draw(st.sampled_from(TILES))
    spec = batch.resolve_spec(config, draw(st.sampled_from(VARIANTS)))
    kernel = get_kernel(draw(st.sampled_from(kernel_names())))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        m = draw(st.integers(min_value=1, max_value=widest))
        n = draw(st.one_of(st.just(1),
                           st.integers(min_value=1, max_value=m),
                           st.integers(min_value=1, max_value=5000)))
        start = draw(st.integers(min_value=0, max_value=2000))
        dispatch_start = start + draw(st.integers(min_value=0,
                                                  max_value=300))
        dispatch_done = dispatch_start + draw(st.integers(min_value=0,
                                                          max_value=900))
        release = dispatch_start + draw(st.integers(min_value=0,
                                                    max_value=900))
        prefix = batch._Prefix(start, dispatch_start, dispatch_done, release)
        nudge = draw(st.sampled_from([None, None, -1, 0, 1]))
        if nudge is not None:
            # Move dispatch_done onto (or next to) the cycle where the
            # completion schedule turns ambiguous.
            base = oracle(config, kernel, spec,
                          batch._Prefix(start, dispatch_start, -10 ** 9,
                                        release), n, m, tile)
            if base is not None:
                prefix = batch._Prefix(
                    start, dispatch_start,
                    boundary(config, spec, base) + nudge, release)
        rows.append((n, m, prefix))
    return config, tile, spec, kernel, rows


@SETTINGS
@hypothesis.given(case=batches())
def test_every_row_matches_the_scalar_oracle(case):
    config, tile, spec, kernel, rows = case
    grid = batch.predict_grid(config, kernel, spec, rows, tile)
    points = grid.points()
    assert len(points) == len(rows)
    for row, (n, m, prefix) in enumerate(rows):
        expected = oracle(config, kernel, spec, prefix, n, m, tile)
        # The point (or refusal) of a row inside the padded batch ...
        assert points[row] == (expected.point if expected else None)
        # ... its per-cluster markers, padding stripped ...
        assert grid.prediction(row) == expected
        # ... and the one-row case the residual check runs.
        assert batch.predict_point(config, kernel, spec, prefix, n, m,
                                   tile) == expected


def test_ambiguity_refusals_stay_per_row():
    """On each side of both ambiguity boundaries, only the ambiguous
    row of a batch refuses; its neighbours are still timed."""
    kernel = get_kernel("daxpy")
    tile = HOMOGENEOUS.cluster_span(8).tile
    for variant in VARIANTS:
        spec = batch.resolve_spec(HOMOGENEOUS, variant)
        probe = oracle(HOMOGENEOUS, kernel, spec,
                       batch._Prefix(0, 10, -10 ** 9, 100), 512, 8, tile)
        edge = boundary(HOMOGENEOUS, spec, probe)
        rows = [(512, 8, batch._Prefix(0, 10, edge + nudge, 100))
                for nudge in (-1, 0, 1)]
        refused = [point is None for point in batch.predict_grid(
            HOMOGENEOUS, kernel, spec, rows, tile).points()]
        expected = [oracle(HOMOGENEOUS, kernel, spec, prefix, n, m,
                           tile) is None
                    for n, m, prefix in rows]
        assert refused == expected
        assert refused[1] and not refused[0]
