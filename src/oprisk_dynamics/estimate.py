"""Frequentist parameter estimation from a loss database.

The estimator reads a database as LossEvents: the steps of each process
that hold a positive loss, plus its length T. They are counted into
sufficient statistics: for every event (t, i) with a full memory window
behind it, either all trigger counts are zero (the base class, informative
about theta_i), or exactly one influencer j is active with count c (the
(i, j, c) class, informative about J_ij), or several influencers are active
at once and the event fits no closed-form inversion and is discarded with a
diagnostic count. The counts are taken over the segments between the steps
where some trigger count changes, so the work and memory grow with the
number of losses, not with T.

estimate_from_counts inverts the zero-loss ratio of each class, once, into
estimates:

    theta_i    = (1/lam_i) * ln(1 - base_zero/base_total)
    J_ij^(c)   = (1/c) * ( -theta_i + (1/lam_i) * ln(1 - class_zero/class_total) )

A ratio of 0 or 1 admits no finite inverse; such a class yields a warning and
a listed reason instead of a number.
Noise rates are never estimated here; they come from spontaneous-loss
probabilities or quantiles via the helpers.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import errors
from .errors import DegeneracyWarning
from .model import LossMatrix, horizon_matrix, noise_rates, store_read_only

logger = logging.getLogger(__name__)

__all__ = [
    "LossEvents",
    "EventClassCounts",
    "EstimateSet",
    "classify_events",
    "estimate_from_counts",
    "estimate_from_database",
    "collapse_precision",
    "collapse_estimates",
    "lambda_from_p",
    "lambda_from_quantile",
]


@dataclass(frozen=True, eq=False)
class LossEvents:
    """The steps that hold a positive loss, per process, and the length T of
    the database: all the estimator reads of a loss database.

    ``steps[i]`` holds process i's 0-based steps, as distinct int64 values in
    increasing order, each in [0, n_steps).
    """

    steps: tuple
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")
        for i, s in enumerate(self.steps):
            if not (isinstance(s, np.ndarray) and s.dtype == np.int64 and s.ndim == 1):
                raise ValueError(f"steps[{i}] must be a 1-D int64 array")
            if s.size and not (s[0] >= 0 and s[-1] < self.n_steps and (s[:-1] < s[1:]).all()):
                raise ValueError(f"steps[{i}] must increase strictly within [0, {self.n_steps})")

    @classmethod
    def of(cls, db) -> "LossEvents":
        """The events of a LossMatrix, or of a (T, N) array that passes its
        rules: the entries > 0."""
        losses = (db if isinstance(db, LossMatrix) else LossMatrix(db)).losses
        n_steps, n = losses.shape
        t, i = np.nonzero(losses > 0.0)
        return cls(tuple(t[i == k] for k in range(n)), n_steps)

    @property
    def n_processes(self) -> int:
        return len(self.steps)

    def head(self, n_steps: int) -> "LossEvents":
        """The events of the first ``n_steps`` steps, 0 <= n_steps <= T."""
        if not 0 <= n_steps <= self.n_steps:
            raise ValueError(f"head takes 0 to {self.n_steps} steps, got {n_steps}")
        return LossEvents(tuple(s[: np.searchsorted(s, n_steps)] for s in self.steps), n_steps)

    def head_fraction(self, fraction: float) -> "LossEvents":
        """The events of the first ``int(fraction * T)`` steps; all T at 1.0.

        Past 2**53 steps the float product drops steps, so the whole database
        is cut at its own length; other fractions keep the float cut, which
        takes 0.7 of 10 steps as 7 where an exact one would take 6.
        """
        return self.head(self.n_steps if fraction == 1.0 else int(fraction * self.n_steps))


@dataclass(frozen=True, eq=False)
class EventClassCounts:
    """Event counters per conditioning class, as read-only int64 copies.

    Attributes:
        base_total: per process i, events with every trigger count zero.
        base_zero: of those, events with zero loss.
        class_total: shape (N, N, W) where entry [i, j, c-1] counts events
            with C_ij = c and all other counts zero.
        class_zero: of those, events with zero loss of process i.
        discarded: per process, events with two or more active influencers,
            excluded from every class.
        n_steps: length of the counted database.
        horizons: the (N, N) horizon matrix the classes were built with.
    """

    base_total: np.ndarray
    base_zero: np.ndarray
    class_total: np.ndarray
    class_zero: np.ndarray
    discarded: np.ndarray
    n_steps: int
    horizons: np.ndarray

    def __post_init__(self) -> None:
        store_read_only(self, np.int64, "base_total", "base_zero", "class_total",
                         "class_zero", "discarded", "horizons")
        if (self.base_zero > self.base_total).any() or (self.base_zero < 0).any():
            raise ValueError("base_zero must lie in [0, base_total]")
        if (self.class_zero > self.class_total).any() or (self.class_zero < 0).any():
            raise ValueError("class_zero must lie in [0, class_total]")

    @property
    def n_processes(self) -> int:
        return self.base_total.shape[0]

    @property
    def window(self) -> int:
        """Number of leading steps skipped: the maximum horizon."""
        return int(self.horizons.max(initial=0))


@dataclass(frozen=True, eq=False)
class EstimateSet:
    """The counts an estimate was inverted from, and what was inverted from
    them, as read-only float64 copies; sufficient to re-simulate.

    ``j_hat`` is shaped like ``counts.class_total``: entry [i, j, c - 1]
    holds the J_ij candidate of class (i, j, c), 0.0 where it yields none.
    The degenerate classes are read from the counts: ``degenerate_theta``
    lists (i, reason) for the base classes, whose ``theta_hat`` stays 0.0,
    and ``skipped_classes`` (i, j, c, reason) for the non-empty (i, j, c)
    ones. Indices are 0-based; serialization converts to 1-based.
    """

    theta_hat: np.ndarray
    j_hat: np.ndarray
    lam: np.ndarray
    counts: EventClassCounts

    def __post_init__(self) -> None:
        store_read_only(self, np.float64, "theta_hat", "j_hat", "lam")
        shape = self.counts.class_total.shape
        if self.j_hat.shape != shape:
            raise errors.DimensionMismatch("j_hat", shape, self.j_hat.shape)
        if (self.theta_available & (self.theta_hat > 0)).any():
            raise ValueError("available theta estimates must be <= 0")

    @property
    def n_processes(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def horizons(self) -> np.ndarray:
        return self.counts.horizons

    @cached_property
    def degenerate_theta(self) -> list:
        base = enumerate(zip(self.counts.base_total.tolist(), self.counts.base_zero.tolist()))
        return [(i, reason) for i, (total, zero) in base if (reason := _degeneracy(total, zero))]

    @cached_property
    def skipped_classes(self) -> list:
        return [(i, j, k + 1, why) for i, j, k, _, _, why in _filled_classes(self.counts) if why]

    @cached_property
    def theta_available(self) -> np.ndarray:
        """False exactly at the processes listed in ``degenerate_theta``."""
        available = np.ones(self.n_processes, dtype=bool)
        available[[i for i, _ in self.degenerate_theta]] = False
        available.setflags(write=False)
        return available

    @cached_property
    def candidates(self) -> dict:
        """(i, j) -> [(c, J_ij candidate, support), ...] for each pair with a
        usable class, pairs in sorted order and classes by c; a class's
        support is its events in ``class_total``."""
        pairs: dict = {}
        for i, j, k, total, _, reason in _filled_classes(self.counts):
            if not reason:
                pairs.setdefault((i, j), []).append((k + 1, float(self.j_hat[i, j, k]), total))
        return pairs

    def to_json_dict(self) -> dict:
        """Plain JSON types, 1-based indices, all candidates with their
        (count class, support) provenance."""
        doc = {
            "theta_hat": [float(t) for t in self.theta_hat],
            "theta_available": [bool(a) for a in self.theta_available],
            "lambda": [float(v) for v in self.lam],
            "coupling_candidates": {
                f"{i + 1},{j + 1}": [{"count_class": c, "estimate": value, "support": support}
                                     for c, value, support in found]
                for (i, j), found in self.candidates.items()
            },
        }
        doc["diagnostics"] = {
            "discarded": [int(d) for d in self.counts.discarded],
            "degenerate_theta": [
                {"process": i + 1, "reason": reason} for i, reason in self.degenerate_theta
            ],
            "skipped_classes": [
                {"i": i + 1, "j": j + 1, "count_class": c, "reason": reason}
                for i, j, c, reason in self.skipped_classes
            ],
            "window": self.counts.window,
            "estimation_steps": self.counts.n_steps,
        }
        return doc


def classify_events(events: LossEvents, horizons: np.ndarray) -> EventClassCounts:
    """Count a database's events into per-class event counters.

    Counting starts at t = max horizon so every trigger count sees a full
    window; the strict predicate loss > 0 defines activity. Each trigger
    count C_ij(t), the positive losses of j over [t - h_ij, t - 1], changes
    only at s + 1 and s + h_ij + 1 for a positive step s of j. So the steps
    of process i are cut at those points of its live pairs (horizons[i, j]
    > 0), and each segment adds its length to its class's total and its
    length minus i's own losses inside it to the class's zero count. No
    array of the database's length is built.

    Args:
        horizons: (N, N) nonnegative integer matrix.

    Raises:
        DimensionMismatch, NegativeHorizon: as ``horizon_matrix`` raises them.
        DatabaseTooShort: fewer than max horizon + 1 steps.
    """
    n_steps, n = events.n_steps, events.n_processes
    horizons = horizon_matrix(horizons, n)
    w = int(horizons.max(initial=0))
    if n_steps < w + 1:
        raise errors.DatabaseTooShort(n_steps, w + 1)

    base_total = np.zeros(n, dtype=np.int64)
    base_zero = np.zeros(n, dtype=np.int64)
    discarded = np.zeros(n, dtype=np.int64)
    class_total = np.zeros((n, n, w), dtype=np.int64)
    class_zero = np.zeros((n, n, w), dtype=np.int64)
    for i in range(n):
        live = np.flatnonzero(horizons[i])
        lags = horizons[i, live].tolist()
        sources = [events.steps[j] for j in live.tolist()]
        # segment k is [cuts[k], cuts[k + 1]), every count constant on it;
        # a repeated cut makes an empty segment, which adds nothing
        cuts = np.concatenate([[w, n_steps]] + [s + 1 for s in sources]
                              + [s + (h + 1) for s, h in zip(sources, lags)])
        cuts = np.sort(np.clip(cuts, w, n_steps))
        start, length = cuts[:-1], np.diff(cuts)
        lossless = length - np.diff(np.searchsorted(events.steps[i], cuts))
        # counts[k, s]: positive losses of live[k] over [t - h, t - 1], t in segment s
        counts = np.empty((live.size, start.size), dtype=np.int64)
        for k, (s, h) in enumerate(zip(sources, lags)):
            np.subtract(np.searchsorted(s, start), np.searchsorted(s, start - h), out=counts[k])
        active = counts > 0
        n_active = active.sum(axis=0)
        # a segment with one active influencer live[k] at count c is in class
        # code k * w + c, one with none in code 0, every other in the last code
        code = (counts + active * (w * np.arange(live.size))[:, None]).sum(axis=0)
        code[n_active >= 2] = live.size * w + 1
        total = np.zeros(live.size * w + 2, dtype=np.int64)
        zero = np.zeros_like(total)
        np.add.at(total, code, length)
        np.add.at(zero, code, lossless)
        base_total[i], base_zero[i], discarded[i] = total[0], zero[0], total[-1]
        class_total[i, live] = total[1:-1].reshape(live.size, w)
        class_zero[i, live] = zero[1:-1].reshape(live.size, w)

    return EventClassCounts(
        base_total=base_total,
        base_zero=base_zero,
        class_total=class_total,
        class_zero=class_zero,
        discarded=discarded,
        n_steps=n_steps,
        horizons=horizons,
    )


def _degeneracy(total: int, zero: int) -> str | None:
    """Why a class of ``total`` events, ``zero`` of them lossless, has no
    finite inverse; None when its zero-loss ratio is usable."""
    if total == 0:
        return "no-base-events"
    if zero == 0:
        return "zero-ratio-0"
    if zero == total:
        return "zero-ratio-1"
    return None


def _filled_classes(counts: EventClassCounts) -> list:
    """Each non-empty (i, j, c) class in np.argwhere order, as (i, j, c - 1,
    total, zero, why it has no finite inverse or None)."""
    filled = counts.class_total > 0
    cells = zip(*(index.tolist() for index in np.nonzero(filled)),
                counts.class_total[filled].tolist(), counts.class_zero[filled].tolist())
    return [(i, j, k, total, zero, _degeneracy(total, zero)) for i, j, k, total, zero in cells]


def _log_lossy_ratio(total: int, zero: int):
    """log(1 - zero / total) for a usable class, as log1p; where zero / total
    rounds to 1.0, from the exact count of lossy events, so that it stays
    finite."""
    ratio = zero / total
    return np.log1p(-ratio) if ratio < 1.0 else np.log((total - zero) / total)


_THETA_WARNINGS = {
    "no-base-events": "no base-class events, theta unavailable",
    "zero-ratio-0": "base zero-loss ratio is 0, theta degenerate at 0",
    "zero-ratio-1": "base zero-loss ratio is 1, theta unavailable",
}


def estimate_from_counts(counts: EventClassCounts, lam) -> EstimateSet:
    """Invert every class's zero-loss ratio, the base classes first, then the
    (i, j, c) classes in np.argwhere order.

    The base class of process i yields theta_hat[i]; each usable (i, j, c)
    class yields the J_ij candidate j_hat[i, j, c - 1], which
    collapse_precision weighs by the class's support. A degenerate class (no
    events, ratio 0, ratio 1) is data, not an error: it emits a
    DegeneracyWarning, and the EstimateSet lists it, read from the counts. A
    degenerate base class leaves theta_hat[i] = 0.0; a degenerate (i, j, c)
    class leaves its j_hat entry 0.0.

    Raises:
        NonPositiveLambda: a rate that is not finite and positive.
        MissingTheta: a usable class needs theta_hat[i] but it is unavailable.
    """
    lam = noise_rates(lam)
    n = counts.n_processes
    theta_hat = np.zeros(n)
    unavailable = set()
    for i, (total, zero) in enumerate(zip(counts.base_total.tolist(), counts.base_zero.tolist())):
        if reason := _degeneracy(total, zero):
            warnings.warn(
                f"process {i + 1}: {_THETA_WARNINGS[reason]}", DegeneracyWarning, stacklevel=2
            )
            unavailable.add(i)
        else:
            theta_hat[i] = _log_lossy_ratio(total, zero) / lam[i]

    j_hat = np.zeros(counts.class_total.shape)
    usable = 0
    for i, j, k, total, zero, reason in _filled_classes(counts):
        if reason:
            warnings.warn(
                f"class (i, j, c) = ({i + 1}, {j + 1}, {k + 1}): zero-loss "
                f"ratio is {zero // total}, candidate skipped",
                DegeneracyWarning,
                stacklevel=2,
            )
            continue
        if i in unavailable:
            raise errors.MissingTheta(i)
        j_hat[i, j, k] = (-theta_hat[i] + _log_lossy_ratio(total, zero) / lam[i]) / (k + 1)
        usable += 1

    logger.info("estimated %d/%d thresholds and %d coupling candidates from %d steps",
                n - len(unavailable), n, usable, counts.n_steps)
    return EstimateSet(theta_hat=theta_hat, j_hat=j_hat, lam=lam, counts=counts)


def estimate_from_database(events: LossEvents, horizons: np.ndarray, lam) -> EstimateSet:
    """Classify a database's events and invert their counts."""
    return estimate_from_counts(classify_events(events, horizons), lam)


def collapse_precision(estimates: EstimateSet) -> np.ndarray:
    """Inverse-variance mean of the candidates per pair; 0 where none exist.

    A candidate J from count class c over n events inverts a zero-loss ratio
    r with 1 - r = exp(lam_i * (theta_hat_i + c * J)), so r is recovered from
    the candidate itself. Its delta-method variance r / ((1 - r) n (lam_i c)^2)
    makes its weight (1 - r) n (lam_i c)^2 / r: a class with a handful of
    events barely moves one with thousands.

    Raises:
        ValueError: a candidate implies a zero-loss ratio outside (0, 1)
            (theta_hat_i + c * J >= 0), whose weight would be infinite or
            negative; estimate_from_counts never emits one.
    """
    n = estimates.n_processes
    collapsed = np.zeros((n, n))
    for (i, j), found in estimates.candidates.items():
        c, values, support = (np.array(column, dtype=np.float64) for column in zip(*found))
        lam = estimates.lam[i]
        ratio = -np.expm1(lam * (estimates.theta_hat[i] + c * values))
        if not ((ratio > 0.0) & (ratio < 1.0)).all():
            raise ValueError(
                f"pair (i, j) = ({i + 1}, {j + 1}): a candidate implies a "
                "zero-loss ratio outside (0, 1)"
            )
        weights = (1.0 - ratio) * support * (lam * c) ** 2 / ratio
        weights /= weights.sum()
        collapsed[i, j] = float(weights @ values)
    return collapsed


def collapse_estimates(estimates: EstimateSet, m_trajectories: int, seed: int) -> np.ndarray:
    """Draw the (M, N, N) couplings stack of an M-trajectory forecast, one
    matrix per trajectory.

    Trajectory m's matrix picks, independently and uniformly, one candidate
    per (i, j) pair; pairs without candidates stay 0. Draws run matrix by
    matrix in trajectory order, and in sorted pair order within a matrix.
    """
    n = estimates.n_processes
    pairs = list(estimates.candidates.items())
    stack = np.zeros((m_trajectories, n, n))
    if not pairs:
        return stack
    gen = np.random.Generator(np.random.PCG64(seed))
    # one bounded draw per (trajectory, pair), in the order a loop over
    # trajectories, then pairs, would make them
    sizes = np.array([len(found) for _, found in pairs])
    picks = gen.integers(np.tile(sizes, m_trajectories)).reshape(m_trajectories, len(pairs))
    for p, ((i, j), found) in enumerate(pairs):
        stack[:, i, j] = np.array([value for _, value, _ in found])[picks[:, p]]
    return stack


def lambda_from_p(p: float, theta: float) -> float:
    """Noise rate from the spontaneous-loss probability: lam = ln(p)/theta.

    With threshold theta < 0, an isolated process loses with per-step
    probability p = exp(lam * theta); this inverts that relation.
    """
    if not (np.isfinite(p) and 0.0 < p < 1.0):
        raise errors.InvalidProbability(f"p must lie in (0, 1), got {p!r}")
    if not (np.isfinite(theta) and theta < 0.0):
        raise errors.NonNegativeTheta(f"theta must be < 0, got {theta!r}")
    return float(np.log(p) / theta)


def lambda_from_quantile(q: float, alpha: float) -> float:
    """Noise rate from one loss quantile: lam = -ln(1 - alpha)/q.

    ``q`` is the alpha-quantile of the per-event loss size distribution
    (exponential), e.g. q = median and alpha = 0.5.
    """
    if not (np.isfinite(q) and q > 0.0):
        raise errors.InvalidQuantile(f"q must be > 0, got {q!r}")
    if not (np.isfinite(alpha) and 0.0 < alpha < 1.0):
        raise errors.InvalidOrder(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(-np.log1p(-alpha) / q)
