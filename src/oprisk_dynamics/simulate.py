"""Discrete-time evolution of the interacting loss processes.

Each step, process i suffers

    l_i(t) = ramp( sum_j J_ij * C_ij(t) + theta_i + xi_i(t) )

where C_ij(t) counts the strictly positive losses of process j over the last
``horizons[i][j]`` steps and xi_i is exponential noise with rate lam[i].

Noise is reproducible by contract: a PCG64 stream seeded explicitly, one
uniform draw per process per step in process order, transformed by the
inverse CDF ``xi = -ln(u) / lam`` with ``u = 1 - r`` so that u never hits 0.

The batch engine evolves B independent trajectories in lockstep over shared
(theta, lam, horizons) but per-trajectory couplings and noise streams. Its
arithmetic is ordered so results are identical for any batch size. It hands
its losses out one chunk of steps at a time, so its memory is bounded by the
chunk, not by the trajectory length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .model import LossMatrix, ModelParameters, NoiseSpec, validate_parameters

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without the extra
    _HAVE_NUMBA = False

__all__ = ["Trajectory", "simulate", "cumulative"]

_CHUNK_STEPS = 16384
# trajectory-steps per chunk: a batch of B evolves max(1, _CHUNK_BUDGET // B)
# steps at a time, so the noise and loss blocks stay near 2 * budget * N floats
_CHUNK_BUDGET = 131072

# The scalar and pure-numpy chunk loops are arithmetically identical. The
# scalar loop is fast only when Numba compiles it; this switch lets tests pin
# the equality on every machine and users opt out.
use_compiled_kernel: bool = _HAVE_NUMBA


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One simulated path: losses, their running sums, and the seed used."""

    losses: LossMatrix
    cumulative: np.ndarray
    seed: int


def cumulative(losses) -> np.ndarray:
    """Per-process running sums z_i(t) of a (T, N) loss array or LossMatrix."""
    arr = losses.losses if isinstance(losses, LossMatrix) else np.asarray(losses)
    return np.cumsum(arr, axis=0)


def simulate(
    p: ModelParameters,
    initial: LossMatrix | None,
    n_steps: int,
    noise: NoiseSpec,
) -> Trajectory:
    """Evolve the equation of motion for ``n_steps`` steps.

    Deterministic given (p, initial, n_steps, noise.seed): two calls with the
    same arguments return bit-identical trajectories.

    Args:
        p: model parameters (validated here if not already).
        initial: loss history whose last max-horizon rows start the run, so
            a run continues another's ``Trajectory.losses``; None means the
            all-zero history (no process has lost anything yet).
        n_steps: number of steps T >= 1.
        noise: rates and seed; rates must equal ``p.lam``.
    """
    p = validate_parameters(p)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not np.array_equal(noise.rates, p.lam):
        raise ValueError("noise rates must equal the model lambda vector")

    out = np.empty((n_steps, p.n))
    for start, block in _evolve(
        p.theta,
        p.lam,
        p.couplings[None, :, :],
        p.horizons,
        _start_history(p, initial),
        n_steps,
        [noise.generator()],
    ):
        out[start : start + block.shape[0]] = block[:, 0]
    losses = LossMatrix(out)
    z = np.cumsum(losses.losses, axis=0)
    z.setflags(write=False)
    return Trajectory(losses=losses, cumulative=z, seed=noise.seed)


def _start_history(p: ModelParameters, initial: LossMatrix | None) -> np.ndarray:
    """The last W = max-horizon rows of ``initial``, oldest first; None means zeros.

    Raises:
        DimensionMismatch: ``initial`` has another number of processes.
        HorizonExceedsHistory: ``initial`` has fewer than W steps.
    """
    w = p.max_horizon
    if initial is None:
        return np.zeros((w, p.n))
    if initial.n_processes != p.n:
        raise errors.DimensionMismatch("initial", (w, p.n), initial.losses.shape)
    if initial.n_steps < w:
        raise errors.HorizonExceedsHistory(w, initial.n_steps)
    return initial.losses[initial.n_steps - w :]


def _evolve(
    theta: np.ndarray,
    lam: np.ndarray,
    couplings: np.ndarray,
    horizons: np.ndarray,
    initial: np.ndarray,
    n_steps: int,
    generators: list,
):
    """Batched engine yielding the losses of ``n_steps`` steps chunk by chunk.

    Args:
        theta, lam: shared (N,) parameter vectors.
        couplings: (B, N, N), one matrix per trajectory.
        horizons: shared (N, N) integer matrix.
        initial: (W, N) starting history, oldest first, shared by the batch.
        generators: B independent noise generators, consumed chunk-wise; each
            trajectory's stream is identical to per-step sequential draws.

    Yields:
        (start, block): ``block`` is an (m, B, N) float64 view holding the
        losses of steps start .. start + m - 1. It is one reused buffer, so
        the caller consumes it (and may overwrite it) before the next chunk.

    Both chunk loops order the arithmetic the same way: the interaction term
    is accumulated column by column in ascending j, then theta, then noise,
    then the ramp. Batch size must never change results, so no reduction
    ever crosses the trajectory axis.
    """
    n = theta.shape[0]
    n_batch = couplings.shape[0]
    w = int(horizons.max()) if horizons.size else 0
    hs = sorted(int(h) for h in np.unique(horizons) if h > 0)

    # counts_ext[0] is a permanent zero slot for horizon-0 pairs
    counts_ext = np.zeros((1 + len(hs), n_batch, n), dtype=np.int64)
    h_slot = {h: 1 + k for k, h in enumerate(hs)}
    slot_of_pair = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            h = int(horizons[i, j])
            slot_of_pair[i, j] = h_slot[h] if h else 0

    if w:
        ind_init = initial > 0.0
        ring = np.repeat(ind_init[:, None, :], n_batch, axis=1).astype(np.int8)
        for h, slot in h_slot.items():
            counts_ext[slot] = ind_init[w - h:].sum(axis=0, dtype=np.int64)[None, :]
    else:
        ring = np.zeros((0, n_batch, n), dtype=np.int8)
    write_pos = 0

    couplings = np.ascontiguousarray(couplings)
    hs_arr = np.asarray(hs, dtype=np.int64)
    chunk_loop = _compiled_chunk if use_compiled_kernel else _numpy_chunk
    chunk = max(1, min(_CHUNK_STEPS, _CHUNK_BUDGET // n_batch, n_steps))
    # noise buffer is (B, chunk, N) so each member's draws fill a contiguous
    # slice; the inverse CDF is elementwise, so one pass over the batch is exact
    xi = np.empty((n_batch, chunk, n))
    block = np.empty((chunk, n_batch, n))

    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        noise = xi[:, :m]
        for b, gen in enumerate(generators):
            gen.random(out=noise[b])
        np.subtract(1.0, noise, out=noise)
        np.log(noise, out=noise)
        np.negative(noise, out=noise)
        noise /= lam
        write_pos = chunk_loop(
            noise,
            couplings,
            theta,
            slot_of_pair,
            hs_arr,
            counts_ext,
            ring,
            write_pos,
            block[:m],
        )
        yield start, block[:m]


def _numpy_chunk(
    xi, couplings, theta, slot_of_pair, hs, counts_ext, ring, write_pos, out
) -> int:
    """Chunk loop in pure numpy; arithmetic order matches the compiled kernel."""
    n_batch, m, n = xi.shape
    w = ring.shape[0]
    live_cols = [j for j in range(n) if np.any(couplings[:, :, j] != 0.0)]
    col_couplings = {j: np.ascontiguousarray(couplings[:, :, j]) for j in live_cols}
    col_slots = {j: slot_of_pair[:, j] for j in live_cols}
    theta_row = theta[None, :]
    hs = hs.tolist()
    inter = np.empty((n_batch, n))
    prod = np.empty((n_batch, n))
    arg = np.empty((n_batch, n))
    ind = np.empty((n_batch, n), dtype=bool)
    for s in range(m):
        inter.fill(0.0)
        for j in live_cols:
            cj = counts_ext[col_slots[j], :, j]
            np.multiply(col_couplings[j], cj.T, out=prod)
            inter += prod
        np.add(inter, theta_row, out=arg)
        arg += xi[:, s, :]
        np.maximum(arg, 0.0, out=arg)
        out[s] = arg
        if w:
            np.greater(arg, 0.0, out=ind)
            for k, h in enumerate(hs):
                counts = counts_ext[k + 1]
                counts += ind
                counts -= ring[(write_pos - h) % w]
            ring[write_pos] = ind
            write_pos = (write_pos + 1) % w
    return write_pos


def _compiled_chunk(
    xi, couplings, theta, slot_of_pair, hs, counts_ext, ring, write_pos, out
):
    """Chunk loop one scalar at a time; compiled by Numba when it imports."""
    n_batch, m, n = xi.shape
    w = ring.shape[0]
    n_h = hs.shape[0]
    for s in range(m):
        for b in range(n_batch):
            for i in range(n):
                acc = 0.0
                for j in range(n):
                    acc += couplings[b, i, j] * counts_ext[slot_of_pair[i, j], b, j]
                v = (acc + theta[i]) + xi[b, s, i]
                out[s, b, i] = v if v > 0.0 else 0.0
        if w:
            for k in range(n_h):
                old = write_pos - hs[k]
                if old < 0:
                    old += w
                for b in range(n_batch):
                    for i in range(n):
                        pos = 1 if out[s, b, i] > 0.0 else 0
                        counts_ext[k + 1, b, i] += pos - ring[old, b, i]
            for b in range(n_batch):
                for i in range(n):
                    ring[write_pos, b, i] = 1 if out[s, b, i] > 0.0 else 0
            write_pos += 1
            if write_pos == w:
                write_pos = 0
    return write_pos


if _HAVE_NUMBA:
    _compiled_chunk = numba.njit(cache=True)(_compiled_chunk)
