"""Shared fixtures: the bundled reference scenario and a small fast variant,
the brute-force oracles of event classification and VaR, and the exact mean
cumulative loss and loss count of a model's loss-window Markov chain."""

from fractions import Fraction

import numpy as np
import pytest

from oprisk_dynamics.estimate import EstimateSet, EventClassCounts
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


def hand_counts(horizons, classes=None, base_total=100, base_zero=50) -> EventClassCounts:
    """Counts over ``horizons`` built by hand.

    Each process's base class holds ``base_total`` events, ``base_zero`` of
    them lossless (a scalar or one value per process; usable by default).
    ``classes`` maps (i, j, c), with 0-based i and j, to the class's (total,
    zero); every other class is empty. The database is as long as the window
    plus the largest base class.
    """
    horizons = np.asarray(horizons, dtype=np.int64)
    n, w = horizons.shape[0], int(horizons.max(initial=0))
    class_total = np.zeros((n, n, w), dtype=np.int64)
    class_zero = np.zeros((n, n, w), dtype=np.int64)
    for (i, j, c), (total, zero) in (classes or {}).items():
        class_total[i, j, c - 1], class_zero[i, j, c - 1] = total, zero
    base_total = np.broadcast_to(np.asarray(base_total, dtype=np.int64), (n,))
    return EventClassCounts(
        base_total=base_total, base_zero=np.broadcast_to(base_zero, (n,)),
        class_total=class_total, class_zero=class_zero, discarded=np.zeros(n, dtype=np.int64),
        n_steps=w + int(base_total.max(initial=0)), horizons=horizons,
    )


def hand_estimates(theta_hat, lam, horizons, candidates, **base) -> EstimateSet:
    """An EstimateSet whose usable classes are exactly ``candidates``, a map
    from (i, j, c) to (estimate, support): each of those classes holds
    ``support`` events, half of them lossless (rounded down, so a support
    of at least 2). ``base`` goes to hand_counts."""
    counts = hand_counts(
        horizons, {key: (n, n // 2) for key, (_, n) in candidates.items()}, **base
    )
    j_hat = np.zeros(counts.class_total.shape)
    for (i, j, c), (value, _) in candidates.items():
        j_hat[i, j, c - 1] = value
    return EstimateSet(theta_hat=theta_hat, j_hat=j_hat, lam=lam, counts=counts)


def brute_force_classify(losses: np.ndarray, horizons: np.ndarray):
    """Naive recount of every conditioning class, one window scan per event."""
    n_steps, n = losses.shape
    w = int(horizons.max()) if horizons.size else 0
    cmax = w
    base_total = np.zeros(n, dtype=int)
    base_zero = np.zeros(n, dtype=int)
    class_total = np.zeros((n, n, cmax), dtype=int)
    class_zero = np.zeros((n, n, cmax), dtype=int)
    discarded = np.zeros(n, dtype=int)
    for t in range(w, n_steps):
        for i in range(n):
            counts = []
            for j in range(n):
                h = int(horizons[i, j])
                counts.append(int((losses[t - h : t, j] > 0).sum()) if h else 0)
            active = [j for j, c in enumerate(counts) if c > 0]
            if not active:
                base_total[i] += 1
                base_zero[i] += losses[t, i] == 0
            elif len(active) == 1:
                j = active[0]
                c = counts[j]
                class_total[i, j, c - 1] += 1
                class_zero[i, j, c - 1] += losses[t, i] == 0
            else:
                discarded[i] += 1
    return base_total, base_zero, class_total, class_zero, discarded


def brute_force_var(samples, confidence):
    """Smallest observed value with >= confidence fraction of samples <= it."""
    ordered = sorted(samples)
    n = len(ordered)
    target = Fraction(confidence) * n
    for rank, value in enumerate(ordered, start=1):
        if rank >= target:
            return value
    return ordered[-1]


def exact_law(p: ModelParameters, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact E z_i(n_steps) of every process i, and its expected number of
    losses by step n_steps, from a start with no losses.

    Reads only the equation of motion. A source is a process that some
    process depends on (a nonzero coupling with a positive horizon). The
    state is each source's loss indicators over its longest such horizon,
    bit d of its field for step t - 1 - d: a Markov chain. Given the state,
    the noises are independent, and process i has the drive
    a = theta_i + sum_j J_ij C_ij. It loses with probability min(1, e^{lam a}),
    and its expected loss is e^{lam a} / lam when a <= 0, a + 1 / lam
    otherwise. The distribution over states moves one step with one
    ``np.bincount`` over every state's successors.

    Raises:
        ValueError: the chain has more than 2**16 states.
    """
    live = (p.horizons > 0) & (p.couplings != 0.0)
    sources = np.flatnonzero(live.any(axis=0))
    widths = [int(p.horizons[live[:, j], j].max()) for j in sources]
    offsets = np.cumsum([0] + widths)
    if offsets[-1] > 16:
        raise ValueError(f"the loss-window chain needs 2**{offsets[-1]} states, over 2**16")
    states = np.arange(2 ** int(offsets[-1]))
    drive = np.tile(p.theta, (states.size, 1))
    shifted = np.zeros_like(states)
    for j, width, offset in zip(sources, widths, offsets):
        window = (states >> offset) & ((1 << width) - 1)
        shifted |= ((window << 1) & ((1 << width) - 1)) << offset
        for i in np.flatnonzero(live[:, j]):
            count = sum((window >> d) & 1 for d in range(p.horizons[i, j]))
            drive[:, i] += p.couplings[i, j] * count
    rate = np.exp(p.lam * np.minimum(drive, 0.0))
    mean_loss = np.where(drive <= 0.0, rate / p.lam, drive + 1.0 / p.lam)
    # successors[o, s], and its probability, for outcome o: source k lost
    # this step where bit k of o is set
    outcomes = np.arange(2 ** sources.size)[:, None]
    successors = shifted[None, :].repeat(outcomes.size, axis=0)
    chance = np.ones(successors.shape)
    for k, (j, offset) in enumerate(zip(sources, offsets)):
        lost = (outcomes >> k) & 1 == 1
        successors |= np.where(lost, 1 << offset, 0)
        chance *= np.where(lost, rate[:, j], 1.0 - rate[:, j])
    successors = successors.ravel()
    occupation = np.zeros(states.size)
    law = np.zeros(states.size)
    law[0] = 1.0
    for _ in range(n_steps):
        occupation += law
        law = np.bincount(successors, weights=(chance * law).ravel(), minlength=states.size)
    return occupation @ mean_loss, occupation @ rate


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
