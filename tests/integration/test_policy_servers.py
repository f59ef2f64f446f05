"""One placement-policy hierarchy, two servers.

The back-to-back, event-simulated ``run_workload`` (E9) and the
virtual-time ``TrafficEngine`` (E13) serve the same policy objects, so
the same job stream must get the same per-job decision on both.
"""

import pathlib

import pytest

from repro.errors import OffloadError
from repro.experiments import scheduler_experiment
from repro.soc.config import SoCConfig
from repro.soc.manticore import ManticoreSystem
from repro.traffic import TrafficEngine
from repro.workload import (
    AlwaysHost,
    AlwaysOffload,
    ModelDriven,
    characterize_platform,
    generate_workload,
    run_workload,
)

CONFIG = SoCConfig.extended(num_clusters=8)
KERNELS = ("daxpy", "memcpy")
RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


@pytest.fixture(scope="module")
def platform():
    return characterize_platform(CONFIG, KERNELS, n_values=(128, 512, 1024),
                                 m_values=(1, 2, 4, 8))


def test_both_servers_make_the_same_decisions(platform):
    jobs = generate_workload(16, kernels=KERNELS, min_n=16, max_n=4096,
                             seed=5)
    engine = TrafficEngine.from_platform(platform, capacity=8)
    for policy in (AlwaysHost(), AlwaysOffload(8), platform):
        simulated = run_workload(ManticoreSystem(CONFIG), jobs, policy)
        predicted = engine.run(jobs, policy)
        assert simulated.policy_name == predicted.policy_name
        assert [(o.placement.offload, o.placement.num_clusters)
                for o in simulated.outcomes] == [
            (o.placement == "offload", o.num_clusters)
            for o in predicted.outcomes]
        if policy is platform:
            # A mixed stream: the decision is not a constant.
            assert 0 < simulated.offloaded_jobs < len(jobs)
            # Built without models, the policy reads the engine's: E13's
            # zero-argument form decides exactly as E9's fitted one.
            assert engine.run(jobs, ModelDriven()) == predicted


def test_model_driven_without_models_needs_a_predicting_server():
    jobs = generate_workload(1, kernels=KERNELS, seed=5)
    # The event-simulated server predicts nothing, so it carries no models.
    with pytest.raises(OffloadError, match="characterized"):
        run_workload(ManticoreSystem(CONFIG), jobs, ModelDriven())


def test_e9_matches_the_committed_artifact():
    committed = (RESULTS / "scheduler_policies.csv").read_text()
    assert scheduler_experiment().to_csv() == committed
