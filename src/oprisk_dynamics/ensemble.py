"""Monte Carlo ensembles, cumulative-loss statistics, and value-at-risk.

Reproducibility contract: every trajectory seed is a pure function of the
master seed and the trajectory index (splitmix-style derivation), and all
cross-trajectory reductions run in trajectory-index order. An ensemble is
therefore bit-identical for any batch size or worker schedule.

Worker processes: a batch wide enough is cut into contiguous parts, one per
usable CPU. The first part runs in the calling process and each other one in
a child made by ``os.fork``. Every part evolves its own trajectories and adds
them to the running sums, which live in one anonymous shared mapping, for a
range of steps only once the part before it has added that range: each part
tells the next, through a pipe, the step it has reached. So the sums are
still added in trajectory-index order, and only those progress messages pass
between processes.

Seed layout: stream 0 seeds the candidate draws of an EstimateSet source,
stream 1 + m feeds trajectory m.
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from . import errors
from .estimate import EstimateSet, collapse_estimates
from .model import LossMatrix, ModelParameters, seed_in_range
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
# Trajectories per process at the least: a batch of B trajectories runs in
# min(usable CPUs, B // _MIN_PART) processes. run_ensemble, T = 2000,
# sample-per-run estimate of the reference model, one batch, 1 / 2
# processes, ms (median of 15, two runs; 2 CPUs, x86-64, NumPy 2.4):
#
#   B              64         128        256        512        1000
#   1 process      20.4/20.7  31.0/31.3  48.0/48.1  80.8/80.8  112/114
#   2 processes    18.4/19.5  31.7/32.4  40.9/41.7  58.5/59.5  68.5/69.8
#
# Parts of 64 are level, parts of 32 gain under 10%, about what a fork and
# join (1.2-1.5 ms) and run-to-run drift can take back; from parts of 128
# the gain grows with the width.
_MIN_PART = 128
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
    # a NumPy integer would overflow in the arithmetic below
    x = (int(master_seed) + (stream + 1) * _GOLDEN) & _MASK
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
        master_seed: seed all trajectory streams were derived from.
    """

    mean_z: np.ndarray
    std_z: np.ndarray
    terminal_samples: np.ndarray
    master_seed: int

    @property
    def m_trajectories(self) -> int:
        """M, the number of trajectories."""
        return self.terminal_samples.shape[0]

    @property
    def n_processes(self) -> int:
        return self.mean_z.shape[1]


def parameters_from_estimates(estimates: EstimateSet, couplings: np.ndarray) -> ModelParameters:
    """Assemble simulation parameters from an estimate set.

    Args:
        couplings: the candidates collapsed into one matrix, such as
            ``collapse_precision`` gives or ``collapse_estimates`` draws.

    Raises:
        EstimationDegenerate: some process has no usable threshold estimate.
    """
    if estimates.degenerate_theta:
        raise errors.EstimationDegenerate([i for i, _ in estimates.degenerate_theta])
    return ModelParameters(
        theta=estimates.theta_hat,
        lam=estimates.lam,
        couplings=couplings,
        horizons=estimates.horizons,
    )


def run_ensemble(
    source,
    initial: LossMatrix | None,
    n_steps: int,
    m_trajectories: int,
    master_seed: int,
    batch_size: int = 1024,
) -> EnsembleResult:
    """Simulate M independent trajectories and aggregate their z paths.

    Args:
        source: ModelParameters, whose couplings every trajectory shares, or
            an EstimateSet, from whose candidates collapse_estimates draws
            each trajectory's matrix, seeded with derived stream 0.
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
    # deriving stream 0 checks the master seed before any batch forks
    collapse_seed = derive_seed(master_seed, 0)

    if isinstance(source, EstimateSet):
        # the whole stack up front: trajectory m's matrix is the same however
        # the batches are cut
        couplings = collapse_estimates(source, m_trajectories, collapse_seed)
        p = parameters_from_estimates(source, couplings[0])
    else:
        p = source
        couplings = np.broadcast_to(p.couplings, (m_trajectories, p.n, p.n))

    initial_arr = _start_history(p, initial)
    batches = [
        _part_bounds(first, min(first + batch_size, m_trajectories))
        for first in range(0, m_trajectories, batch_size)
    ]
    # forked parts add into the sums and write their terminal rows, so both
    # live in memory the children share whenever some batch forks
    zeros = _shared_zeros if any(len(bounds) > 2 for bounds in batches) else np.zeros
    # process-major like the engine's blocks: sums[0] runs over z and
    # sums[1] over z * z
    sums = zeros((2, p.n, n_steps))
    terminal = zeros((m_trajectories, p.n))
    for bounds in batches:
        logger.debug(
            "ensemble batch %d..%d of %d: %d process(es) of widths %s",
            bounds[0], bounds[-1], m_trajectories, len(bounds) - 1, np.diff(bounds).tolist(),
        )
        part = functools.partial(
            _evolve_part, p, couplings, initial_arr, n_steps, master_seed, sums, terminal
        )
        if len(bounds) == 2:
            part(*bounds)
        else:
            _fork_parts(part, bounds)

    m = float(m_trajectories)
    mean_z = np.ascontiguousarray(sums[0].T) / m
    var_z = (np.ascontiguousarray(sums[1].T) - m * mean_z * mean_z) / (m - 1.0)
    np.maximum(var_z, 0.0, out=var_z)
    std_z = np.sqrt(var_z)
    return EnsembleResult(
        mean_z=mean_z,
        std_z=std_z,
        terminal_samples=terminal,
        # every trajectory's seed was derived from it, so it is in range
        master_seed=int(master_seed),
    )


def _part_count(width: int) -> int:
    """Processes that evolve a batch of ``width`` trajectories.

    One per usable CPU, each with at least _MIN_PART trajectories. Only one
    where ``os.fork`` is missing or another Python thread is alive: a forked
    child holds only the calling thread, so a lock held by another thread
    would stay held in it.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, width // _MIN_PART))


def _part_bounds(first: int, stop: int) -> list:
    """Cut trajectories ``first .. stop - 1`` into ``_part_count`` contiguous
    parts of near-equal width; part k is ``bounds[k] .. bounds[k + 1] - 1``."""
    count = _part_count(stop - first)
    return [first + (stop - first) * k // count for k in range(count + 1)]


def _shared_zeros(shape) -> np.ndarray:
    """A float64 array of zeros in an anonymous mapping that forked children
    share with the calling process."""
    # mmap and signal are imported where a batch forks: loading them costs a
    # run that never forks (simulate, estimate) about 0.3 MB of RSS
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def _evolve_part(p, couplings, initial, n_steps, master_seed, sums, terminal, first, stop,
                 after=None, tell=None) -> None:
    """Evolve trajectories ``first .. stop - 1``, add their z and z * z into
    ``sums`` and write their terminal rows.

    ``after`` is the read end of a pipe on which the part before this one
    reports each step it has reached, or None for a batch's first part. A
    range of steps is added only once that part has reached its end, so every
    sum is added in trajectory-index order. ``tell`` is the write end of the
    pipe to the next part, or None for the last.
    """
    generators = _trajectory_generators(
        [derive_seed(master_seed, 1 + m) for m in range(first, stop)]
    )
    carry = np.zeros((p.n, stop - first))
    reached = 0 if after is not None else n_steps
    for start, z in _evolve(p, couplings[first:stop], initial, n_steps, generators):
        # z is (N, m, B), process-major. Each process's running sum
        # starts from its carry, so it is associated exactly as one
        # full-length cumsum would associate it. The first chunk's carry
        # is +0.0, which leaves a loss as it is: a loss is never -0.0,
        # because the engine's acc + theta never is (see simulate)
        for slab, base in zip(z, carry):
            _running_sum(slab, slab, base)
        carry[:] = z[:, -1]
        end = start + z.shape[1]
        while reached < end:
            # 8-byte messages: a pipe write that small is atomic
            message = os.read(after, 8)
            if not message:
                raise EOFError("the part before ended early")
            reached = int.from_bytes(message, "little")
        _add_in_order(sums[:, :, start:end], z)
        if tell is not None:
            os.write(tell, end.to_bytes(8, "little"))
    terminal[first:stop] = carry.T


def _fork_parts(part, bounds) -> None:
    """Run ``part(bounds[k], bounds[k + 1], after, tell)`` for each part k:
    part 0 here, every other one in a forked child, with a pipe from each
    part to the next.

    Returns once every child has exited; raises RuntimeError if one failed.
    If part 0 raises, the children are killed and joined before the error
    propagates, so no child outlives the call.
    """
    pipes, held, pids = [], [], []
    finished = False
    try:
        for _ in range(len(bounds) - 2):
            pipes.append(os.pipe())
            held += pipes[-1]
        for k in range(1, len(bounds) - 1):
            pid = os.fork()
            if pid == 0:
                _run_child(part, bounds, k, pipes)
            pids.append(pid)
        tell = pipes[0][1]
        # each child holds the ends it uses: a part sees the end of its pipe
        # only once every other holder of the write end has closed it
        for fd in held:
            if fd != tell:
                os.close(fd)
        held = [tell]
        try:
            part(bounds[0], bounds[1], None, tell)
            finished = True
        except BrokenPipeError:
            pass  # part 1 has exited; its status says why
    finally:
        for fd in held:
            os.close(fd)
        codes = _join(pids, kill=not finished)
    failed = [
        f"{bounds[k + 1]}..{bounds[k + 2]} (status {code})"
        for k, code in enumerate(codes) if code != 0
    ]
    if failed or not finished:
        raise RuntimeError(f"ensemble worker processes failed: trajectories {', '.join(failed)}")


def _run_child(part, bounds, k, pipes) -> None:
    """Run part k in a forked child, which leaves through ``os._exit``: with
    status 0 once its trajectories are added, 1 otherwise. It exits when its
    pipe from the part before reaches its end, and prints the traceback of
    any other error it meets."""
    status = 1
    try:
        after = pipes[k - 1][0]
        tell = pipes[k][1] if k < len(pipes) else None
        for fd in (fd for pipe in pipes for fd in pipe):
            if fd not in (after, tell):
                os.close(fd)
        part(bounds[k], bounds[k + 1], after, tell)
        status = 0
    except (EOFError, BrokenPipeError):
        pass  # a neighbouring part ended early, and its status says why
    except Exception:
        # straight to the descriptor: a buffered stream would also flush what
        # the parent had left in its buffer
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _join(pids, kill: bool) -> list:
    """Wait for every child, after killing them if ``kill``, and return their
    exit codes. SIGINT is held meanwhile, so a KeyboardInterrupt cannot leave
    a child unwaited; it is raised once the children are gone."""
    import signal

    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        if kill:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        return [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _add_in_order(sums, z) -> None:
    """Add each trajectory's z and z * z into ``sums``, in trajectory order.

    ``sums`` is a (2, N, m) view of the running sums and ``z`` an (N, m, B)
    chunk. Batch size must not change floating-point results, so the
    trajectories are added one after another: the z and z * z halves are
    staged apart, each with its running sum on top and then at most
    _SUM_GROUP trajectories, and a reduction over an axis that is not the
    contiguous one adds its rows in order. Where N * m is 1 the reduced axis
    is the contiguous one, which NumPy would sum pairwise, so the rows are
    accumulated one after another instead.
    """
    n_batch = z.shape[2]
    stage = np.empty((2, min(_SUM_GROUP, n_batch) + 1) + sums.shape[1:])
    for first in range(0, n_batch, _SUM_GROUP):
        group = z[:, :, first : first + _SUM_GROUP].transpose(2, 0, 1)
        rows = stage[:, : group.shape[0] + 1]
        rows[:, 0] = sums
        rows[0, 1:] = group
        np.multiply(rows[0, 1:], rows[0, 1:], out=rows[1, 1:])
        if sums[0].size == 1:
            sums[...] = np.add.accumulate(rows, axis=1)[:, -1]
        else:
            np.add.reduce(rows, axis=1, out=sums)


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
