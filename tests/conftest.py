"""Shared fixtures: the bundled reference scenario and a small fast variant."""

import numpy as np
import pytest

from oprisk_dynamics.estimate import EventClassCounts
from oprisk_dynamics.model import ModelParameters


def build_reference_parameters() -> ModelParameters:
    """Five-process scenario used throughout the acceptance tests.

    Thresholds are all -1, noise rates follow from the spontaneous-loss
    probabilities (0.01, 0.05, 0.01, 0.025, 0.025), and six couplings are
    active with a five-step memory each.
    """
    p = np.array([0.01, 0.05, 0.01, 0.025, 0.025])
    theta = -np.ones(5)
    lam = np.log(p) / theta
    couplings = np.zeros((5, 5))
    for i, j, value in [
        (1, 2, 0.1),
        (3, 3, 0.15),
        (4, 2, 0.1),
        (4, 3, 0.15),
        (5, 1, 0.1),
        (5, 3, 0.15),
    ]:
        couplings[i - 1, j - 1] = value
    horizons = np.where(couplings != 0.0, 5, 0)
    return ModelParameters(theta=theta, lam=lam, couplings=couplings, horizons=horizons)


def empty_counts(horizons) -> EventClassCounts:
    """The counts of no events over ``horizons``, for an EstimateSet built by
    hand."""
    horizons = np.asarray(horizons, dtype=np.int64)
    n, w = horizons.shape[0], int(horizons.max(initial=0))
    return EventClassCounts(
        base_total=np.zeros(n, dtype=np.int64), base_zero=np.zeros(n, dtype=np.int64),
        class_total=np.zeros((n, n, w), dtype=np.int64),
        class_zero=np.zeros((n, n, w), dtype=np.int64),
        discarded=np.zeros(n, dtype=np.int64), n_steps=0, horizons=horizons,
    )


@pytest.fixture(scope="session")
def reference_parameters() -> ModelParameters:
    return build_reference_parameters()


@pytest.fixture()
def small_parameters() -> ModelParameters:
    """Two-process model with one coupling, cheap enough for tight loops."""
    return ModelParameters(
        theta=np.array([-1.0, -1.0]),
        lam=np.array([1.0, 2.0]),
        couplings=np.array([[0.0, 0.5], [0.0, 0.0]]),
        horizons=np.array([[0, 3], [0, 0]]),
    )
