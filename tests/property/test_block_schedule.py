"""Property tests: the simulator has one block schedule.

:func:`repro.kernels.base.slice_bounds` is the static block schedule in
closed form.  :func:`split_range` builds every slice from it, the batch
planner evaluates it on arrays, and a cluster's compute phase
(:meth:`repro.cluster.cluster.Cluster.phase_cycles`) times its cores
from the same rule in two timing evaluations.  The oracles here are
the per-slice and per-core loops those forms replace.
"""

import hypothesis
import hypothesis.strategies as st
import numpy

from repro.cluster.worker import split_among_cores
from repro.kernels.base import WorkSlice, slice_bounds, split_range
from repro.kernels.registry import get_kernel, kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.soc.tiles import SNITCH, VECWIDE, TileGroup

SETTINGS = hypothesis.settings(max_examples=200, deadline=None)

#: One SNITCH cluster and one VECWIDE cluster (8 and 4 worker cores).
_SYSTEM = ManticoreSystem(SoCConfig.with_fabric(
    [TileGroup(name="little", tile=SNITCH, count=1),
     TileGroup(name="big", tile=VECWIDE, count=1)]))
CLUSTERS = _SYSTEM.clusters


@SETTINGS
@hypothesis.given(st.integers(0, 5000), st.integers(1, 64))
def test_slice_bounds_is_split_range_in_closed_form(n, parts):
    slices = split_range(n, parts)
    assert [(s.lo, s.hi) for s in slices] == [
        slice_bounds(n, parts, index) for index in range(parts)]
    assert all(type(bound) is int
               for index in range(parts)
               for bound in slice_bounds(n, parts, index))


@SETTINGS
@hypothesis.given(st.lists(st.tuples(st.integers(0, 5000),
                                     st.integers(1, 40)),
                           min_size=1, max_size=8))
def test_slice_bounds_on_arrays_matches_the_scalar_form(rows):
    """The batch planner's form: rows of ``(n, m)`` padded to the
    widest ``m``; real clusters read the scalar bounds."""
    n, m = numpy.array(rows, dtype=numpy.int64).T
    cid = numpy.arange(int(m.max()))
    lo, hi = slice_bounds(n[:, None], m[:, None], cid)
    for row, (row_n, row_m) in enumerate(rows):
        assert list(zip(lo[row, :row_m].tolist(),
                        hi[row, :row_m].tolist())) == [
            (s.lo, s.hi) for s in split_range(row_n, row_m)]


def per_core_cycles(cluster, kernel, elements, n):
    """The per-core oracle: one timing evaluation per sub-slice."""
    timing = cluster.tile.timing_for(kernel)
    return tuple(timing.cycles(kernel.work(sub.elements, n))
                 for sub in split_range(elements, cluster.num_workers))


@SETTINGS
@hypothesis.given(st.sampled_from(range(len(CLUSTERS))),
                  st.sampled_from(kernel_names()),
                  st.one_of(st.integers(0, 20), st.integers(0, 5000)),
                  st.integers(1, 4096))
def test_phase_cycles_match_the_per_core_oracle(which, name, elements, n):
    """Includes ``elements < cores`` (idle cores) and ``elements = 0``."""
    cluster = CLUSTERS[which]
    kernel = get_kernel(name)
    cycles = cluster.phase_cycles(kernel, elements, n)
    assert cycles == per_core_cycles(cluster, kernel, elements, n)
    assert all(type(value) is int for value in cycles)


@SETTINGS
@hypothesis.given(st.integers(0, 5000), st.integers(0, 5000),
                  st.sampled_from(range(len(CLUSTERS))))
def test_naive_barrier_split_partitions_the_cluster_slice(lo, elements,
                                                          which):
    """``REPRO_NAIVE_BARRIER``'s per-core split covers the cluster's
    slice in order, with the element counts the closed form times."""
    cluster = CLUSTERS[which]
    work = WorkSlice(index=3, lo=lo, hi=lo + elements)
    subs = split_among_cores(work, cluster.num_workers)
    assert [sub.index for sub in subs] == list(range(cluster.num_workers))
    assert subs[0].lo == work.lo and subs[-1].hi == work.hi
    for earlier, later in zip(subs, subs[1:]):
        assert earlier.hi == later.lo
    assert [sub.elements for sub in subs] == [
        s.elements for s in split_range(elements, cluster.num_workers)]
