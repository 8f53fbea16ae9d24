"""Core types of the interacting loss-process model.

A model instance has N processes. At every discrete step each process suffers
a nonnegative monetary loss driven by exponential noise, a fixed threshold,
and the recent loss activity of the other processes. These types carry the
constants and histories shared by the simulator, estimator, and analytics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors

__all__ = [
    "ModelParameters",
    "LossMatrix",
    "NoiseSpec",
]


@dataclass(frozen=True, eq=False)
class ModelParameters:
    """All model constants, checked when the object is built.

    Each array is stored as a read-only copy: float64, and int64 for the
    horizons. The number of processes N is ``len(theta)``.

    Attributes:
        theta: shape (N,) thresholds. Negative values model per-step loss
            avoidance; positive values a pathological drift.
        lam: shape (N,) exponential noise rates, strictly positive. Units are
            inverse monetary units.
        couplings: shape (N, N) matrix J. Entry [i, j] is the loss induced in
            process i by each recent nonzero loss of process j.
        horizons: shape (N, N) integer matrix. Entry [i, j] is the number of
            past steps over which losses of j can still influence i.

    Raises:
        DimensionMismatch: theta is empty or not 1-D, or another array's
            shape disagrees with N.
        NonFiniteParameter: a threshold or coupling is NaN or infinite.
        NonPositiveLambda: a noise rate is not finite and positive.
        NegativeHorizon: a horizon is negative or fractional.
        ZeroHorizonWithCoupling: a nonzero coupling could never fire.
    """

    theta: np.ndarray
    lam: np.ndarray
    couplings: np.ndarray
    horizons: np.ndarray

    def __post_init__(self) -> None:
        store_read_only(self, np.float64, "theta", "lam", "couplings")
        theta, lam, couplings = self.theta, self.lam, self.couplings
        if theta.ndim != 1 or theta.size == 0:
            raise errors.DimensionMismatch("theta", "(N,) with N >= 1", theta.shape)
        n = theta.size
        _require_shape("lambda", lam, (n,))
        _require_shape("couplings", couplings, (n, n))
        _require_shape("horizons", np.asarray(self.horizons), (n, n))

        for name, arr in (("theta", theta), ("couplings", couplings)):
            bad = np.argwhere(~np.isfinite(arr))
            if bad.size:
                raise errors.NonFiniteParameter(name, tuple(int(k) for k in bad[0]))

        noise_rates(lam)
        object.__setattr__(self, "horizons", horizon_matrix(self.horizons, n))

        starved = (couplings != 0.0) & (self.horizons < 1)
        if starved.any():
            i, j = (int(k) for k in np.argwhere(starved)[0])
            raise errors.ZeroHorizonWithCoupling(i, j, float(couplings[i, j]))

    @property
    def n(self) -> int:
        """Number of processes N."""
        return len(self.theta)

    @property
    def max_horizon(self) -> int:
        """Depth of history a simulation or estimation window needs."""
        return int(np.max(self.horizons))


def _require_shape(name: str, value: np.ndarray, expected: tuple) -> None:
    if value.shape != expected:
        raise errors.DimensionMismatch(name, expected, value.shape)


def store_read_only(record, dtype, *names) -> None:
    """Replace each named field of a frozen record with a read-only copy."""
    for name in names:
        arr = np.array(getattr(record, name), dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(record, name, arr)


def horizon_matrix(horizons, n: int) -> np.ndarray:
    """``horizons`` as a read-only (n, n) int64 matrix of whole steps >= 0.

    Raises DimensionMismatch for another shape, and NegativeHorizon naming
    the first entry that is negative, fractional, NaN or beyond int64.
    """
    horizons = np.asarray(horizons)
    _require_shape("horizons", horizons, (n, n))
    # a fraction, NaN, or a value beyond int64 does not survive the cast
    with np.errstate(invalid="ignore"):
        as_int = horizons.astype(np.int64)
    ok = (horizons >= 0) & (as_int == horizons)
    if not ok.all():
        i, j = (int(k) for k in np.argwhere(~ok)[0])
        raise errors.NegativeHorizon(i, j, horizons[i, j].item())
    as_int.setflags(write=False)
    return as_int


def noise_rates(rates) -> np.ndarray:
    """``rates`` as a float64 array, every entry finite and positive.

    Raises:
        NonPositiveLambda: names the first offending rate and its index.
    """
    rates = np.asarray(rates, dtype=np.float64)
    ok = np.isfinite(rates) & (rates > 0.0)
    if not ok.all():
        idx = int(np.argmin(ok))
        raise errors.NonPositiveLambda(idx, float(rates[idx]))
    return rates


def seed_in_range(seed: int) -> bool:
    """Whether ``seed`` is a 64-bit unsigned integer, the seeds PCG64 takes:
    a Python or NumPy integer, never a bool or a float it would truncate."""
    return isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= seed < 2**64


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """A T x N history of per-step, per-process losses.

    Rows are time steps t = 0..T-1, columns are processes. Entries are
    finite and nonnegative; violating entries are rejected with their
    coordinates.
    """

    losses: np.ndarray

    def __post_init__(self) -> None:
        store_read_only(self, np.float64, "losses")
        arr = self.losses
        if arr.ndim != 2:
            raise errors.DimensionMismatch("losses", "(T, N)", arr.shape)
        bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
        if bad.size:
            t, i = (int(k) for k in bad[0])
            raise ValueError(
                f"losses contain a negative or non-finite entry {arr[t, i]} "
                f"at (t, process) = ({t}, {i})"
            )

    @property
    def n_steps(self) -> int:
        return self.losses.shape[0]

    @property
    def n_processes(self) -> int:
        return self.losses.shape[1]


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Noise rates plus the seed of the deterministic random stream.

    Draws are exponential with per-process rate ``rates[i]``, realized by
    inverse-CDF transform of a PCG64 stream (see the simulator module).
    """

    rates: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        rates = noise_rates(self.rates)
        if not seed_in_range(self.seed):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "seed", int(self.seed))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of the stream."""
        return np.random.Generator(np.random.PCG64(self.seed))
