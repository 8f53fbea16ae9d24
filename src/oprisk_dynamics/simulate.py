"""Discrete-time evolution of the interacting loss processes.

Each step, process i suffers

    l_i(t) = ramp( sum_j J_ij * C_ij(t) + theta_i + xi_i(t) )

where C_ij(t) counts the strictly positive losses of process j over the last
``horizons[i][j]`` steps and xi_i is exponential noise with rate lam[i].

Noise is reproducible by contract: a PCG64 stream seeded explicitly, one
uniform draw per process per step in process order, transformed by the
inverse CDF ``xi = -ln(u) / lam`` with ``u = 1 - r`` so that u never hits 0.

The batch engine evolves B independent trajectories in lockstep over shared
(theta, lam, horizons) but per-trajectory couplings and noise streams. It
hands its losses out one chunk of steps at a time, so its memory is bounded
by the chunk, not by the trajectory length. The chunk is held process-major,
as an (N, m, B) block, so the m steps of one process are one contiguous
(m, B) slab.

Within a chunk the processes are evolved in dependency order. Process i
depends on j when horizons[i, j] > 0 and some trajectory of the batch has
J_ij != 0. The strongly connected components of that graph run upstream
first. A process on no cycle needs only losses already known for the whole
chunk: its window counts are differences of prefix counts of its upstream
processes, and its losses come from one vectorised pass over the chunk. Only
the processes of a cycle (in the reference model, the self-coupled process 3)
step through the chunk, one step at a time on (B,) rows, whatever the batch
width. A cycle steps only while it is within reach of its own losses: when
no member has lost anything, in any trajectory, over the last ``reach``
steps (the largest lag of a term whose source is a member), the members'
counts are held from there to the end of the chunk, every term whose source
is a member then counts zero, and the members' losses come from the same
vectorised pass with every term, up to the next step with a member loss.
A narrow batch then settles more of the chunk by rounds of that pass before
it steps again: each round takes the previous round's positive losses as the
members' counts and sweeps again. A window count reads only earlier steps, so
where two successive rounds agree on which losses are positive, from the
first unsettled step on, their counts and losses are exact; each round
settles at least one step, and rounds that agree to the end settle the chunk.

Every loss gets the same arithmetic in the same order whatever the batch,
the chunk or the component: theta enters the engine as theta + 0.0, never
-0.0; the terms J_ij * C_ij are summed over the live j in ascending order,
then theta is added, then the noise, then the ramp. A term that is left out
has a zero coupling or a zero count, so it is a signed zero, which can
change only the sign of a zero sum; adding theta erases that sign, so
acc + theta, and hence a loss, is never -0.0. Results are therefore
identical for any batch size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors
from .model import LossMatrix, ModelParameters, NoiseSpec

__all__ = ["Trajectory", "simulate", "cumulative"]

_CHUNK_STEPS = 16384
# trajectory-steps per chunk: a batch of B evolves max(1, _CHUNK_BUDGET // B)
# steps at a time, so the (N, m, B) loss block stays near budget * N floats
_CHUNK_BUDGET = 131072
# members whose noise is drawn into the small staging buffer at a time
_DRAW_MEMBERS = 64
# trajectory-steps per tile of a process-major sweep
_SWEEP_TILE = 16384
# Batch width from which a running sum over steps adds one (B,) row at a
# time instead of calling np.cumsum along the step axis. A row add costs
# about the same at any width; cumsum along axis 0 costs 2-4 ns per element.
# Per step row of a chunk-sized slab, float64 sums / bool into int32 counts
# (best of 7; 2 vCPU x86-64, NumPy 2.4):
#
#   B              128        256        512        1000
#   np.cumsum      0.46/0.52  0.96/1.06  2.2/2.2    3.2/3.5 us
#   row adds       1.07/1.55  0.64/1.17  0.66/1.44  0.78/1.27 us
_ROW_SCAN_WIDTH = 256

# no compiled kernel exists; the name stays for benchmark reports that read it
use_compiled_kernel = False

# A batch of at most _SETTLE_WIDTH trajectories settles a cycle's quiet
# stretches by up to _SETTLE_ROUNDS rounds of re-sweeping before its step
# loop resumes (see _cycle). In a wider batch some trajectory is nearly always
# in a run of losses that outlasts the rounds, so they cost more than the
# steps they save. Batch-1 simulate of the 20k-step reference model (seed 1),
# and run_ensemble of B trajectories, T = 2000, in one process, sample-per-run
# / mean collapse of a 20k-step reference estimate, ms (median of 11; 2 CPUs,
# x86-64, NumPy 2.4; B = 96 from a second run; simulate from a later host
# phase about 2x slower, the median of four runs):
#
#   rounds  simulate  B = 4      16         32           64           96           128
#   0       17.4      4.21/3.75  9.35/9.13  15.41/15.43  21.41/21.57  23.98/24.33  29.58/29.61
#   2       4.1       1.80/1.35  4.04/3.47  12.41/9.47   22.55/20.33               30.65/30.66
#   4       4.1       1.75/1.34  3.25/3.07  10.02/8.22   20.55/15.06  26.07/19.59  31.08/27.20
#   8       4.2       1.34/1.34  3.28/3.04  9.41/8.20    21.84/14.87               32.98/27.11
_SETTLE_ROUNDS = 4
_SETTLE_WIDTH = 64


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
        p: model parameters.
        initial: loss history whose last max-horizon rows start the run, so
            a run continues another's ``Trajectory.losses``; None means the
            all-zero history (no process has lost anything yet).
        n_steps: number of steps T >= 1.
        noise: rates and seed; rates must equal ``p.lam``.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not np.array_equal(noise.rates, p.lam):
        raise ValueError("noise rates must equal the model lambda vector")

    out = np.empty((n_steps, p.n))
    for start, block in _evolve(
        p, p.couplings[None, :, :], _start_history(p, initial), n_steps, [noise.generator()]
    ):
        out[start : start + block.shape[1]] = block[:, :, 0].T
    losses = LossMatrix(out)
    z = cumulative(losses)
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


def _component_order(live: np.ndarray) -> list:
    """Strongly connected components of the dependency graph, upstream first.

    Args:
        live: (N, N) bool matrix, ``live[i, j]`` when process i depends on j.

    Returns:
        (members, cyclic) pairs: ``members`` is an ascending list of process
        indices, and ``cyclic`` says whether they feed back on themselves
        (two or more processes, or one self-coupled process). Each component
        comes after every component it depends on.
    """
    n = live.shape[0]
    # reach[i, j]: i depends on j through a path of zero or more edges
    reach = live | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k, None] & reach[None, k, :]
    mutual = reach & reach.T
    components = []
    placed = np.zeros(n, dtype=bool)
    for i in range(n):
        if not placed[i]:
            members = np.flatnonzero(mutual[i])
            placed[members] = True
            cyclic = members.size > 1 or bool(live[i, i])
            components.append((members.tolist(), cyclic))
    # a component reaches strictly more processes than any component it
    # depends on, so sorting by that count is a topological order
    components.sort(key=lambda c: int(reach[c[0][0]].sum()))
    return components


class _Component(NamedTuple):
    """One strongly connected component, with its interaction terms.

    The terms of member k are ``ptr[k] .. ptr[k + 1] - 1``, in ascending j.
    Term t reads the prefix row ``rows[t]`` over a window of ``lags[t]``
    steps and weighs it by ``coefs[t]``, the (B,) couplings J_ij of the
    batch. ``own_rows[k]`` is the prefix row member k writes, or -1 when no
    process depends on it. ``reach`` is the largest lag of a term whose
    source is a member (0 on no cycle). The step loop and the quiet sweeps
    of a cycle read the same terms.
    """

    cyclic: bool
    members: np.ndarray
    own_rows: np.ndarray
    ptr: np.ndarray
    rows: np.ndarray
    lags: np.ndarray
    coefs: np.ndarray
    reach: int


def _component(members, cyclic, live, horizons, couplings, row_of) -> _Component:
    ptr, rows, lags, cols, inside = [0], [], [], [], []
    for i in members:
        for j in np.flatnonzero(live[i]):
            rows.append(row_of[j])
            lags.append(horizons[i, j])
            cols.append(couplings[:, i, j])
            inside.append(j in members)
        ptr.append(len(rows))
    lags = np.array(lags, dtype=np.int64)
    return _Component(
        cyclic=cyclic,
        members=np.array(members, dtype=np.int64),
        own_rows=row_of[members],
        ptr=np.array(ptr, dtype=np.int64),
        rows=np.array(rows, dtype=np.int64),
        lags=lags,
        coefs=np.array(cols, dtype=np.float64).reshape(len(cols), couplings.shape[0]),
        reach=int(lags[np.array(inside, dtype=bool)].max(initial=0)),
    )


def _evolve(
    p: ModelParameters,
    couplings: np.ndarray,
    initial: np.ndarray,
    n_steps: int,
    generators: list,
):
    """Batched engine yielding the losses of ``n_steps`` steps chunk by chunk.

    Args:
        p: model parameters; every trajectory shares their theta, lambda
            and horizons.
        couplings: (B, N, N), one matrix per trajectory, in place of
            ``p.couplings``.
        initial: (W, N) history from ``_start_history``, oldest first; W is the largest horizon.
        generators: B independent noise generators, consumed chunk-wise; each
            trajectory's stream is identical to per-step sequential draws.

    Yields:
        (start, block): ``block`` is an (N, m, B) float64 view holding the
        losses of steps start .. start + m - 1, process-major. It is one
        reused buffer, so the caller consumes it (and may overwrite it)
        before the next chunk.

    No reduction ever crosses the trajectory axis, so batch size never
    changes results.
    """
    theta = p.theta + 0.0  # the one place a zero threshold's sign is settled
    n = p.n
    n_batch = couplings.shape[0]
    w = initial.shape[0]
    live = (p.horizons > 0) & (couplings != 0.0).any(axis=0)
    # only processes that some process depends on need prefix counts
    sources = np.flatnonzero(live.any(axis=0))
    row_of = np.full(n, -1, dtype=np.int64)
    row_of[sources] = np.arange(sources.size)

    plan = [
        _component(members, cyclic, live, p.horizons, couplings, row_of)
        for members, cyclic in _component_order(live)
    ]

    chunk = max(1, min(_CHUNK_STEPS, _CHUNK_BUDGET // n_batch, n_steps))
    block = np.empty((n, chunk, n_batch))
    draws = np.empty((min(_DRAW_MEMBERS, n_batch), chunk, n))
    # prefix[r, k, b]: positive losses of process sources[r] among the first k
    # rows of the window made of the w steps before the chunk, then the chunk
    prefix = np.zeros((sources.size, w + chunk + 1, n_batch), dtype=np.int32)
    prefix[:, 1 : w + 1] = np.cumsum(initial[:, sources] > 0.0, axis=0).T[:, :, None]
    tile = max(1, min(chunk, _SWEEP_TILE // n_batch))
    sweep_work = (
        np.empty((tile, n_batch)),
        np.empty((tile, n_batch)),
        np.empty((tile, n_batch), dtype=bool),
    )

    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        losses = block[:, :m]
        _draw_noise(losses, draws, generators, p.lam)
        for c in plan:
            if c.cyclic:
                _cycle(c, losses, prefix, w, theta, sweep_work)
            else:
                i = c.members[0]
                _sweep(losses[i], prefix, w, c.own_rows[0], c.rows, c.lags, c.coefs, theta[i],
                       sweep_work)
        # the last w rows of this chunk's window start the next one
        prefix[:, : w + 1] = prefix[:, m : m + w + 1] - prefix[:, m, None]
        yield start, losses


def _draw_noise(losses, draws, generators, lam) -> None:
    """Fill the (N, m, B) block with exponential noise, member b from generators[b].

    Each member's uniforms are drawn in stream order, one ``gen.random`` call
    per member into its (m, N) row of the (members, m, N) staging buffer;
    the transpose into the process-major block rides on the first step of
    the inverse CDF.
    """
    m = losses.shape[1]
    size = draws.shape[0]
    for first in range(0, len(generators), size):
        group = generators[first : first + size]
        raw = draws[: len(group), :m]
        for gen, row in zip(group, raw):
            gen.random(out=row)
        np.subtract(1.0, raw.transpose(2, 1, 0), out=losses[:, :, first : first + len(group)])
    np.log(losses, out=losses)
    # -ln(u) / lam: division rounds symmetrically, so dividing by -lam is
    # the same as negating first
    np.divide(losses, -lam[:, None, None], out=losses)


def _sweep(losses, prefix, w, own_row, rows, lags, coefs, theta_i, work) -> None:
    """Evolve one process over a whole chunk, in place.

    ``losses`` is the process's (m, B) slab and holds its noise on entry.
    Every source of the terms passed is already known for the chunk (for a
    cycle member over a quiet stretch, its cycle's counts are held), so each
    window count is a difference of two prefix rows. The slab is swept in
    tiles of about _SWEEP_TILE trajectory-steps, so the work buffers stay small.
    The terms are summed in ascending j from the first product, then theta
    (never -0.0, see ``_evolve``) is added, then the noise, then the ramp, as
    the module docstring states. The process's own prefix counts continue
    from the row before the tile through ``_running_sum``.
    """
    total_buf, term_buf, ind_buf = work
    for first in range(0, losses.shape[0], total_buf.shape[0]):
        slab = losses[first : first + total_buf.shape[0]]
        k = slab.shape[0]
        now = w + first
        if coefs.shape[0]:
            total, term = total_buf[:k], term_buf[:k]
            for t, (r, h, coef) in enumerate(zip(rows, lags, coefs)):
                np.subtract(prefix[r, now : now + k], prefix[r, now - h : now - h + k], out=term)
                if t:
                    term *= coef
                    total += term
                else:
                    np.multiply(term, coef, out=total)
            total += theta_i
            slab += total  # xi + (acc + theta), the same sum as (acc + theta) + xi
        else:
            slab += theta_i  # no terms: xi + theta
        np.maximum(slab, 0.0, out=slab)
        if own_row >= 0:
            np.greater(slab, 0.0, out=ind_buf[:k])
            _running_sum(
                ind_buf[:k], prefix[own_row, now + 1 : now + 1 + k], prefix[own_row, now]
            )


def _running_sum(values, out, base) -> None:
    """Write base + values[0] + ... + values[k] into out[k], for every step k.

    ``values`` and ``out`` are (m, B) with the steps first, ``base`` is
    (B,), and ``out`` may be ``values`` itself. The adds run in step order,
    ((base + values[0]) + values[1]) + ..., which is how np.cumsum adds, so
    a float sum gets the same bits either way. A batch of at least
    _ROW_SCAN_WIDTH trajectories adds one (B,) row at a time; a narrower one
    calls np.cumsum once.
    """
    np.add(base, values[0], out=out[0])
    if out.shape[1] >= _ROW_SCAN_WIDTH:
        for prev, row, dest in zip(out, values[1:], out[1:]):
            np.add(prev, row, out=dest)
    else:
        if out is not values:
            out[1:] = values[1:]
        np.cumsum(out, axis=0, dtype=out.dtype, out=out)


def _cycle(c, losses, prefix, w, theta, work) -> None:
    """Evolve one cyclic component over a chunk, in place.

    The step loop runs only while some member has lost something, in some
    trajectory, within the last ``c.reach`` steps. From the first step s
    where none has, the members' counts are held at their value before s, so
    a term whose source is a member reads held rows or rows within reach
    before s and counts 0; each member is then swept once with all its
    terms, on a copy of the noise, to the end of the chunk. Each quiet
    stretch is copied from that held sweep up to and including its next
    positive step, the one step that moves the counts.

    A batch of at most _SETTLE_WIDTH trajectories then runs up to
    _SETTLE_ROUNDS rounds before the step loop resumes. A round takes the
    previous sweep's positive entries from the first unsettled step s on as
    the members' losses, writes their prefix counts from them, sweeps the
    members again from s on a copy of the noise in the same buffer and
    compares which entries are positive. A window count reads only earlier
    steps, so the new sweep is exact at s, and while the two sweeps agree on
    steps s .. d - 1 the counts it reads are exact too: it is exact up to
    and including d, the first step where they disagree, and is copied up to
    there. Each round so settles at least one step; a round that agrees with
    its guess to the end settles the rest of the chunk. The rounds reuse the
    held sweep's buffer, so the next quiet stretch after them sweeps a held
    sweep again. With no rounds this is the held sweep alone, reused by
    every quiet stretch of the chunk.
    """
    m = losses.shape[1]
    members, own = c.members, c.own_rows
    # steps at the end of the history with no member loss, counted up to reach
    recent = prefix[own, w - c.reach : w + 1]
    quiet = int((recent == recent[:, -1:]).all(axis=(0, 2)).sum()) - 1
    rounds = _SETTLE_ROUNDS if losses.shape[2] <= _SETTLE_WIDTH else 0
    s, positive, swept = 0, None, None
    while True:
        s = _numpy_chunk(losses, prefix, w, s, quiet, c, theta)
        if s == m:
            return
        if swept is None:
            swept = np.empty((members.size,) + losses.shape[1:])
            # a round's guess of which entries are positive, where the sweep
            # differs from it and at which steps: whole-chunk buffers, so
            # that a round allocates nothing whatever the step it starts at
            guess, differs = np.empty((2,) + swept.shape, dtype=bool)
            changed = np.empty(m, dtype=bool)
        if positive is None:
            prefix[own, w + s + 1 : w + m + 1] = prefix[own, w + s, None]
            _sweep_members(c, losses, swept, prefix, w, s, theta, work)
            positive = np.flatnonzero((swept[:, s:] > 0.0).any(axis=(0, 2))) + s
        k = np.searchsorted(positive, s)
        stop = positive[k] + 1 if k < positive.size else m
        losses[members, s:stop] = swept[:, s:stop]
        prefix[own, w + s + 1 : w + stop + 1] = prefix[own, w + s, None]
        prefix[own, w + stop] += swept[:, stop - 1] > 0.0
        for _ in range(rounds if stop < m else 0):
            s, positive = stop, None
            np.greater(swept[:, s:], 0.0, out=guess[:, s:])
            for lost, r in zip(guess, own.tolist()):
                _running_sum(lost[s:], prefix[r, w + s + 1 : w + m + 1], prefix[r, w + s])
            _sweep_members(c, losses, swept, prefix, w, s, theta, work)
            np.greater(swept[:, s:], 0.0, out=differs[:, s:])
            np.not_equal(differs[:, s:], guess[:, s:], out=differs[:, s:])
            differs[:, s:].any(axis=(0, 2), out=changed[s:])
            d = s + int(changed[s:].argmax())
            stop = d + 1 if changed[d] else m
            losses[members, s:stop] = swept[:, s:stop]
            prefix[own, w + stop] = prefix[own, w + stop - 1] + (swept[:, stop - 1] > 0.0)
            if stop == m:
                return
        s, quiet = stop, 0


def _sweep_members(c, losses, values, prefix, w, s, theta, work) -> None:
    """Sweep every member of cycle ``c`` from step s with all its terms, on a
    copy of its noise in ``values``, a (members, m, B) buffer; the members'
    prefix rows are read as they stand and not written."""
    for k, i in enumerate(c.members.tolist()):
        a, b = c.ptr[k], c.ptr[k + 1]
        values[k, s:] = losses[i, s:]
        _sweep(values[k, s:], prefix[:, s:], w, -1, c.rows[a:b], c.lags[a:b], c.coefs[a:b],
               theta[i], work)


def _numpy_chunk(losses, prefix, w, start, quiet, c, theta) -> int:
    """Step loop of cyclic component ``c``, one (B,) row per member per step.

    Steps from ``start`` while the component is within ``c.reach`` steps of
    a member's loss; ``quiet`` is the number of steps since the last one.
    Returns the step at which it has gone quiet, or the chunk's end.

    The loop is bound by NumPy calls on (B,) rows, so it reads its rows from
    iterators over the steps from ``start`` rather than indexing a 2-D array
    at each step. It sums the terms in ascending j from the first product,
    then adds theta (never -0.0, see ``_evolve``), the noise and the ramp, as
    the module docstring states. A cyclic member always has a term, the one
    it reads from the cycle. The iterators make only the views of the steps
    actually taken: a narrow batch goes quiet often, so it calls this many
    times per chunk.
    """
    n_batch = losses.shape[2]
    acc = np.empty(n_batch)
    prod = np.empty(n_batch)
    counts = np.empty(n_batch, dtype=np.int32)
    ind = np.empty(n_batch, dtype=bool)
    procs = []
    for k, i in enumerate(c.members.tolist()):
        window = prefix[c.own_rows[k]]
        # per term, its coupling and its source's prefix rows at the step and lag steps before
        terms = [
            (c.coefs[t], zip(prefix[c.rows[t], w + start :],
                             prefix[c.rows[t], w - c.lags[t] + start :]))
            for t in range(c.ptr[k], c.ptr[k + 1])
        ]
        steps = zip(losses[i, start:], window[w + start :], window[w + start + 1 :])
        procs.append((steps, theta[i], terms))
    for s in range(start, losses.shape[1]):
        if quiet >= c.reach:
            return s
        quiet += 1
        for steps, theta_i, terms in procs:
            for t, (coef, sources) in enumerate(terms):
                np.subtract(*next(sources), out=counts)
                if t:
                    np.multiply(coef, counts, out=prod)
                    acc += prod
                else:
                    np.multiply(coef, counts, out=acc)
            acc += theta_i
            row, before, after = next(steps)
            row += acc  # xi + (acc + theta), the same sum as (acc + theta) + xi
            np.maximum(row, 0.0, out=row)
            np.greater(row, 0.0, out=ind)
            np.add(before, ind, out=after)
            if np.count_nonzero(ind):
                quiet = 0
    return losses.shape[1]
