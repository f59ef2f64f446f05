"""Property tests: a sweep replayed from the cache is bit-identical."""

import hypothesis
import hypothesis.strategies as st

from repro.core.cache import SweepCache
from repro.core.executor import SweepExecutor
from repro.soc.config import SoCConfig


CFG = SoCConfig.extended(num_clusters=4)

grids = st.tuples(
    st.lists(st.sampled_from([24, 32, 48, 64, 96]), min_size=1, max_size=3,
             unique=True),
    st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=3,
             unique=True),
)


@hypothesis.settings(max_examples=5, deadline=None,
                     suppress_health_check=[hypothesis.HealthCheck.too_slow])
@hypothesis.given(grid=grids)
def test_cache_replay_is_bit_identical_to_simulation(grid):
    n_values, m_values = grid
    executor = SweepExecutor(cache=SweepCache())
    fresh = executor.run(CFG, "daxpy", n_values, m_values)
    replayed = executor.run(CFG, "daxpy", n_values, m_values)
    assert replayed == fresh
    assert executor.stats.simulated_points == 0
