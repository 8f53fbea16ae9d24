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
    "validate_parameters",
]


@dataclass(frozen=True, eq=False)
class ModelParameters:
    """All model constants.

    Attributes:
        n: number of processes N.
        theta: shape (n,) thresholds. Negative values model per-step loss
            avoidance; positive values a pathological drift.
        lam: shape (n,) exponential noise rates, strictly positive. Units are
            inverse monetary units.
        couplings: shape (n, n) matrix J. Entry [i, j] is the loss induced in
            process i by each recent nonzero loss of process j.
        horizons: shape (n, n) integer matrix. Entry [i, j] is the number of
            past steps over which losses of j can still influence i.
    """

    n: int
    theta: np.ndarray
    lam: np.ndarray
    couplings: np.ndarray
    horizons: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=np.float64))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=np.float64))
        object.__setattr__(
            self, "couplings", np.asarray(self.couplings, dtype=np.float64)
        )
        object.__setattr__(self, "horizons", np.asarray(self.horizons))

    @property
    def max_horizon(self) -> int:
        """Depth of history a simulation or estimation window needs."""
        return int(np.max(self.horizons)) if self.horizons.size else 0


def _require_shape(name: str, value: np.ndarray, expected: tuple) -> None:
    if value.shape != expected:
        raise errors.DimensionMismatch(name, expected, value.shape)


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


def validate_parameters(p: ModelParameters) -> ModelParameters:
    """Check every invariant of a parameter set.

    Returns a canonical copy (float64/int64 dtypes, read-only arrays) with the
    same content. Validating an already validated object is a no-op.

    Raises:
        DimensionMismatch: an array shape disagrees with ``p.n``.
        NonPositiveLambda: a noise rate is not finite and positive.
        NegativeHorizon: a horizon is negative or fractional.
        ZeroHorizonWithCoupling: a nonzero coupling could never fire.
        NonFiniteParameter: a threshold or coupling is NaN or infinite.
    """
    if not isinstance(p.n, (int, np.integer)) or p.n < 1:
        raise errors.DimensionMismatch("n", "positive integer", p.n)
    n = int(p.n)
    _require_shape("theta", p.theta, (n,))
    _require_shape("lambda", p.lam, (n,))
    _require_shape("couplings", p.couplings, (n, n))
    _require_shape("horizons", p.horizons, (n, n))

    for name, arr in (("theta", p.theta), ("couplings", p.couplings)):
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            raise errors.NonFiniteParameter(name, tuple(int(k) for k in bad[0]))

    noise_rates(p.lam)

    horizons = np.asarray(p.horizons)
    as_int = np.floor(horizons).astype(np.int64, copy=False)
    integral = np.isfinite(horizons) & (horizons == as_int)
    if not integral.all() or (horizons < 0).any():
        bad = np.argwhere(~(integral & (horizons >= 0)))[0]
        i, j = int(bad[0]), int(bad[1])
        raise errors.NegativeHorizon(i, j, horizons[i, j].item())
    horizons = horizons.astype(np.int64)

    starved = (p.couplings != 0.0) & (horizons < 1)
    if starved.any():
        i, j = (int(k) for k in np.argwhere(starved)[0])
        raise errors.ZeroHorizonWithCoupling(i, j, float(p.couplings[i, j]))

    already_canonical = (
        p.horizons.dtype == np.int64
        and not any(
            arr.flags.writeable for arr in (p.theta, p.lam, p.couplings, p.horizons)
        )
    )
    if already_canonical:
        return p

    out = ModelParameters(
        n=n,
        theta=p.theta.copy(),
        lam=p.lam.copy(),
        couplings=p.couplings.copy(),
        horizons=horizons.copy(),
    )
    for arr in (out.theta, out.lam, out.couplings, out.horizons):
        arr.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LossMatrix:
    """A T x N history of per-step, per-process losses.

    Rows are time steps t = 0..T-1, columns are processes. Entries are
    finite and nonnegative; violating entries are rejected with their
    coordinates.
    """

    losses: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.losses, dtype=np.float64)
        if arr.ndim != 2:
            raise errors.DimensionMismatch("losses", "(T, N)", arr.shape)
        bad = np.argwhere(~(np.isfinite(arr) & (arr >= 0)))
        if bad.size:
            t, i = (int(k) for k in bad[0])
            raise ValueError(
                f"losses contain a negative or non-finite entry {arr[t, i]} "
                f"at (t, process) = ({t}, {i})"
            )
        arr = arr.copy() if arr is self.losses or arr.flags.writeable else arr
        arr.setflags(write=False)
        object.__setattr__(self, "losses", arr)

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
