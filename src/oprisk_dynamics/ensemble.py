"""Monte Carlo ensembles, cumulative-loss statistics, and value-at-risk.

Reproducibility contract: every trajectory seed is a pure function of the
master seed and the trajectory index (splitmix-style derivation), and all
cross-trajectory reductions run in trajectory-index order. An ensemble is
therefore bit-identical for any batch size or worker schedule.

Seed layout: stream 0 seeds the candidate draws of a sample-per-run
collapse, stream 1 + m feeds trajectory m.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .estimate import EstimateSet, collapse_estimates
from .model import LossMatrix, ModelParameters, seed_in_range, validate_parameters
from .simulate import _evolve, _running_sum, _start_history

logger = logging.getLogger(__name__)

__all__ = [
    "EnsembleResult",
    "derive_seed",
    "parameters_from_estimates",
    "run_ensemble",
    "var",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
# trajectories staged per ordered reduction of the running sums
_SUM_GROUP = 64
# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx). NEP 19
# keeps that algorithm stable, as every seeded NumPy stream depends on it.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def derive_seed(master_seed: int, stream: int) -> int:
    """Derive an independent 64-bit seed for one numbered stream.

    Splitmix64 finalizer applied to master_seed + (stream + 1) gammas; equals
    the (stream + 1)-th output of a splitmix64 generator seeded with
    master_seed. Distinct streams give statistically independent seeds.
    """
    if not seed_in_range(master_seed):
        raise ValueError(f"master_seed must lie in [0, 2**64), got {master_seed}")
    if stream < 0:
        raise ValueError(f"stream must be >= 0, got {stream}")
    x = (master_seed + (stream + 1) * _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _trajectory_generators(seeds) -> list:
    """One generator per 64-bit seed, each equal to ``Generator(PCG64(seed))``.

    PCG64(seed) takes its state from ``SeedSequence(seed).generate_state(4,
    np.uint64)``. Building a SeedSequence per seed is most of the cost of a
    generator, so this runs that algorithm for all seeds at once in uint32
    arithmetic, which wraps as the algorithm's does: the seed's two 32-bit
    words, zero-padded to the pool's four, are hashed into the pool, each
    pool word is mixed into every other, and eight words are hashed out of
    the pool and paired, low word first, into four uint64s. (A seed below
    2**32 has one word, and the pool hashes 0 where a word is missing, so
    two words serve every seed.)
    """
    # Imported and defined here, not at module level: the import loads
    # numpy.random, about 6 MB that an estimate never uses.
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence whose state is already computed: the four uint64
        words PCG64 asks its seed sequence for."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    seeds = np.asarray(seeds, dtype=np.uint64)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for k in range(8):
        value = pool[k % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    words = np.stack([state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2)], axis=1)
    return [np.random.Generator(np.random.PCG64(StateWords(row))) for row in words]


@dataclass(eq=False)
class EnsembleResult:
    """Aggregates of M simulated cumulative-loss paths.

    Attributes:
        mean_z: (T, N) ensemble average of z_i(t).
        std_z: (T, N) ensemble standard deviation, (M - 1) denominator.
        terminal_samples: (M, N) z_i(T) per trajectory, trajectory order.
        m_trajectories: M.
        master_seed: seed all trajectory streams were derived from.
    """

    mean_z: np.ndarray
    std_z: np.ndarray
    terminal_samples: np.ndarray
    m_trajectories: int
    master_seed: int

    @property
    def n_steps(self) -> int:
        return self.mean_z.shape[0]

    @property
    def n_processes(self) -> int:
        return self.mean_z.shape[1]


def parameters_from_estimates(estimates: EstimateSet, couplings: np.ndarray) -> ModelParameters:
    """Assemble simulation parameters from an estimate set.

    Args:
        couplings: the candidates collapsed, as ``collapse_estimates`` does.

    Raises:
        EstimationDegenerate: some process has no usable threshold estimate.
    """
    missing = np.nonzero(~estimates.theta_available)[0]
    if missing.size:
        raise errors.EstimationDegenerate(missing.tolist())
    return validate_parameters(
        ModelParameters(
            n=estimates.n_processes,
            theta=estimates.theta_hat,
            lam=estimates.lam,
            couplings=couplings,
            horizons=estimates.horizons,
        )
    )


def run_ensemble(
    source,
    initial: LossMatrix | None,
    n_steps: int,
    m_trajectories: int,
    master_seed: int,
    collapse: str = "mean",
    batch_size: int = 1024,
) -> EnsembleResult:
    """Simulate M independent trajectories and aggregate their z paths.

    Args:
        source: ModelParameters, or an EstimateSet that collapse_estimates
            turns into one couplings matrix per trajectory: "mean" repeats
            collapse_precision; "sample-per-run" draws each trajectory's
            matrix from the candidates, seeded with derived stream 0.
        initial: starting history shared by every trajectory, as in simulate.
        n_steps: trajectory length T.
        m_trajectories: M >= 2.
        master_seed: trajectory m uses derived stream 1 + m.
        batch_size: trajectories evolved concurrently; never affects results.
            Memory is bounded by the engine's chunk, not by n_steps, so the
            default evolves a whole default-sized ensemble at once.

    Returns:
        EnsembleResult with unbiased (M - 1) standard deviations.
    """
    if m_trajectories < 2:
        raise ValueError(f"m_trajectories must be >= 2, got {m_trajectories}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")

    if isinstance(source, EstimateSet):
        # the whole stack up front: trajectory m's matrix is the same however
        # the batches are cut
        couplings = collapse_estimates(
            source, collapse, m_trajectories, derive_seed(master_seed, 0)
        )
        p = parameters_from_estimates(source, couplings[0])
    else:
        if collapse != "mean":
            raise ValueError("sample-per-run collapse requires an EstimateSet")
        p = validate_parameters(source)
        couplings = np.broadcast_to(p.couplings, (m_trajectories, p.n, p.n))

    n = p.n
    initial_arr = _start_history(p, initial)

    # process-major like the engine's blocks: sums[0] runs over z and
    # sums[1] over z * z
    sums = np.zeros((2, n, n_steps))
    terminal = np.empty((m_trajectories, n))

    for first in range(0, m_trajectories, batch_size):
        bs = min(batch_size, m_trajectories - first)
        generators = _trajectory_generators(
            [derive_seed(master_seed, 1 + m) for m in range(first, first + bs)]
        )
        members = slice(first, first + bs)
        carry = np.zeros((n, bs))
        for start, z in _evolve(
            p.theta,
            p.lam,
            couplings[members],
            p.horizons,
            initial_arr,
            n_steps,
            generators,
        ):
            # z is (N, m, B), process-major. Each process's running sum
            # starts from its carry, so it is associated exactly as one
            # full-length cumsum would associate it. The first chunk's carry
            # is +0.0, which leaves a loss as it is: a loss is never -0.0,
            # as it is the ramp of a sum that starts from +0.0
            for slab, base in zip(z, carry):
                _running_sum(slab, slab, base)
            carry[:] = z[:, -1]
            _add_in_order(sums[:, :, start : start + z.shape[1]], z)
        terminal[members] = carry.T
        logger.debug("ensemble batch %d..%d of %d done", first, first + bs, m_trajectories)

    m = float(m_trajectories)
    mean_z = np.ascontiguousarray(sums[0].T) / m
    var_z = (np.ascontiguousarray(sums[1].T) - m * mean_z * mean_z) / (m - 1.0)
    np.maximum(var_z, 0.0, out=var_z)
    std_z = np.sqrt(var_z)
    return EnsembleResult(
        mean_z=mean_z,
        std_z=std_z,
        terminal_samples=terminal,
        m_trajectories=m_trajectories,
        master_seed=master_seed,
    )


def _add_in_order(sums, z) -> None:
    """Add each trajectory's z and z * z into ``sums``, in trajectory order.

    ``sums`` is a (2, N, m) view of the running sums and ``z`` an (N, m, B)
    chunk. Batch size must not change floating-point results, so the
    trajectories are added one after another: a reduction over the leading
    axis of a C-contiguous stack adds its rows in order, and the stack holds
    the running sums on top, then at most _SUM_GROUP trajectories. A row
    holds both sums, so it never has just one element, which numpy would
    reduce pairwise instead.
    """
    n_batch = z.shape[2]
    stage = np.empty((min(_SUM_GROUP, n_batch) + 1,) + sums.shape)
    for first in range(0, n_batch, _SUM_GROUP):
        group = z[:, :, first : first + _SUM_GROUP].transpose(2, 0, 1)
        rows = stage[: group.shape[0] + 1]
        rows[0] = sums
        rows[1:, 0] = group
        np.multiply(rows[1:, 0], rows[1:, 0], out=rows[1:, 1])
        np.add.reduce(rows, axis=0, out=sums)


def var(samples, confidence: float) -> float:
    """Nearest-rank percentile of a sample: the smallest observed value with
    at least a ``confidence`` fraction of the sample at or below it.

    Sorted ascending, returns the element at 1-based rank
    ceil(confidence * M), clamped to [1, M]. No interpolation: the result is
    always an observed value.
    """
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0:
        raise errors.EmptySample("var requires at least one sample")
    if not (np.isfinite(confidence) and 0.0 < confidence < 1.0):
        raise errors.InvalidOrder(f"confidence must lie in (0, 1), got {confidence!r}")
    rank = math.ceil(confidence * s.size)
    rank = min(max(rank, 1), s.size)
    return float(np.sort(s, kind="stable")[rank - 1])
