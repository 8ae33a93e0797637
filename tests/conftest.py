import numpy as np
import pytest

from latentcause import (
    simulate_multiproxy,
    simulate_multitreatment,
    three_cluster_gaussian,
    two_state_discrete,
)


@pytest.fixture(scope="session")
def proxy_case():
    """Three-cluster design with a mid-size draw shared across tests."""
    scenario = three_cluster_gaussian()
    data, labels = simulate_multiproxy(scenario, 4000, seed=11)
    return scenario, data, labels


@pytest.fixture(scope="session")
def discrete_case():
    scenario = two_state_discrete()
    data, labels = simulate_multitreatment(scenario, 5000, seed=11)
    return scenario, data, labels


@pytest.fixture()
def one_hot_weights():
    def build(labels, k):
        from latentcause import PosteriorMatrix

        w = np.zeros((labels.shape[0], k))
        w[np.arange(labels.shape[0]), labels] = 1.0
        return PosteriorMatrix(weights=w)

    return build
