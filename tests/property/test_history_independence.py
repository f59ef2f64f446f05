"""Property: a job's cycles depend on its grid point alone.

A back-to-back job on a long-lived system must time exactly as it does
on a fresh one, and the input values (drawn from the job's seed) must
not move a single cycle either.  Each example runs a few random jobs on
one system, then the measured job with one seed; the same job then
runs on a fresh system with another seed.  Offloads must agree on
their cycles and on every cluster's phase markers relative to the
offload's start; host runs (``run_on_host``) on their cycles.  The
examples cover every registered kernel, both paper variants, and the
phased and double-buffered exec modes.
"""

import hypothesis
import hypothesis.strategies as st

from repro.core.offload import offload, run_on_host
from repro.kernels.registry import get_kernel, kernel_names
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem

SETTINGS = hypothesis.settings(
    max_examples=30, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])

CONFIG = SoCConfig.extended(num_clusters=8)
#: Sizes whose slices fit a TCDM at every width drawn below (GEMV's
#: slice holds whole matrix rows, so it stays small).
N_VALUES = [16, 40, 96, 256]
GEMV_N_VALUES = [16, 24, 40]
M_VALUES = [1, 2, 3, 8]
VARIANTS = ["baseline", "extended"]
SEEDS = st.integers(min_value=0, max_value=2 ** 16)


def _elementwise(kernel_name, n, m):
    kernel = get_kernel(kernel_name)
    return all(kernel.output_length(name, n, m) == n
               for name in kernel.output_names)


@st.composite
def jobs(draw):
    """One job: ``(where, kernel, n, m, variant, exec_mode)``, where
    ``where`` is ``"offload"`` or ``"host"``."""
    kernel = draw(st.sampled_from(kernel_names()))
    n = draw(st.sampled_from(GEMV_N_VALUES if kernel == "gemv"
                             else N_VALUES))
    m = draw(st.sampled_from(M_VALUES))
    variant = draw(st.sampled_from(VARIANTS))
    modes = ["phased"]
    if _elementwise(kernel, n, m):
        modes.append("double_buffered")
    exec_mode = draw(st.sampled_from(modes))
    where = draw(st.sampled_from(["offload", "offload", "host"]))
    return where, kernel, n, m, variant, exec_mode


def _run(system, job, seed):
    """The job's cycles and, for an offload, each cluster's phase
    markers relative to the offload's start."""
    where, kernel, n, m, variant, exec_mode = job
    if where == "host":
        return run_on_host(system, kernel, n, seed=seed).runtime_cycles
    result = offload(system, kernel, n, m, variant=variant,
                     exec_mode=exec_mode, seed=seed)
    start = result.trace.start_cycle
    markers = tuple(
        tuple(None if value is None else value - start
              for value in (phases.doorbell, phases.awake, phases.decoded,
                            phases.dma_in_done, phases.compute_done,
                            phases.dma_out_done,
                            phases.completion_signalled))
        for phases in result.trace.clusters)
    return result.runtime_cycles, markers


@SETTINGS
@hypothesis.given(job=jobs(), history=st.lists(st.tuples(jobs(), SEEDS),
                                                min_size=1, max_size=3),
                  seed=SEEDS, other_seed=SEEDS)
def test_cycles_depend_on_neither_seed_nor_history(job, history, seed,
                                                   other_seed):
    used = ManticoreSystem(CONFIG)
    for earlier, earlier_seed in history:
        _run(used, earlier, earlier_seed)
    measured = _run(used, job, seed)
    assert measured == _run(ManticoreSystem(CONFIG), job, other_seed)
