"""Simulator tests.

The centerpiece is an exact oracle: a deliberately naive per-step Python
implementation of the equation of motion that recounts triggers from scratch
and consumes the identical noise stream. The production engine must agree
with it bit for bit on random models.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oprisk_dynamics import errors
from oprisk_dynamics.model import LossMatrix, ModelParameters, NoiseSpec
from oprisk_dynamics.ensemble import derive_seed, run_ensemble
from oprisk_dynamics.simulate import (
    _ROW_SCAN_WIDTH,
    _SETTLE_WIDTH,
    _component_order,
    _evolve,
    _running_sum,
    cumulative,
    simulate,
)

from conftest import build_reference_parameters


def naive_simulate(p: ModelParameters, initial: np.ndarray, n_steps: int, seed: int):
    """Reference implementation: explicit loops, no ring buffer, no batching."""
    n = p.n
    gen = np.random.Generator(np.random.PCG64(seed))
    past = [row.copy() for row in initial]
    out = np.zeros((n_steps, n))
    for t in range(n_steps):
        u = 1.0 - gen.random(n)
        xi = -np.log(u) / p.lam
        inter = np.zeros(n)
        for j in range(n):
            counts = np.zeros(n)
            for i in range(n):
                h = int(p.horizons[i, j])
                counts[i] = sum(1.0 for row in past[len(past) - h:] if row[j] > 0.0)
            inter += p.couplings[:, j] * counts
        arg = (inter + p.theta) + xi
        losses = np.maximum(arg, 0.0)
        out[t] = losses
        past.append(losses)
    return out


def random_model(rng: np.random.Generator, allow_negative_j: bool = True):
    n = int(rng.integers(1, 5))
    theta = -rng.uniform(0.2, 1.5, size=n)
    lam = rng.uniform(0.5, 4.0, size=n)
    horizons = rng.integers(0, 5, size=(n, n))
    scale = rng.uniform(-0.4, 0.4, size=(n, n)) if allow_negative_j else rng.uniform(
        0.0, 0.4, size=(n, n)
    )
    couplings = np.where(horizons > 0, scale, 0.0)
    p = ModelParameters(theta=theta, lam=lam, couplings=couplings, horizons=horizons)
    w = p.max_horizon
    initial = np.where(rng.random((w, n)) < 0.4, rng.uniform(0.1, 2.0, (w, n)), 0.0)
    return p, initial


def signed_zero_model(rng: np.random.Generator):
    """A random model whose thresholds are +0.0, -0.0 or negative, at least one
    of them zero, and whose couplings are negative, +0.0 or -0.0."""
    n = int(rng.integers(1, 5))
    # kind 0 is +0.0, kind 1 is -0.0, kind 2 is negative
    theta_kind = rng.integers(0, 3, size=n)
    theta_kind[rng.integers(n)] = rng.integers(0, 2)
    negative = -rng.uniform(0.2, 1.5, n)
    theta = np.where(theta_kind == 0, 0.0, np.where(theta_kind == 1, -0.0, negative))
    lam = rng.uniform(0.5, 4.0, size=n)
    horizons = rng.integers(0, 5, size=(n, n))
    coupling_kind = rng.integers(0, 3, size=(n, n))
    negative = -rng.uniform(0.05, 0.4, (n, n))
    couplings = np.where(coupling_kind == 0, 0.0, np.where(coupling_kind == 1, -0.0, negative))
    couplings = np.where(horizons > 0, couplings, -0.0)
    p = ModelParameters(theta=theta, lam=lam, couplings=couplings, horizons=horizons)
    w = p.max_horizon
    initial = np.where(rng.random((w, n)) < 0.4, rng.uniform(0.1, 2.0, (w, n)), 0.0)
    return p, initial


class ZeroDrawGenerator(np.random.Generator):
    """A NumPy generator whose uniform draws below 0.3 read as 0.0, so that
    the noise -ln(1 - r) / lam of those steps is -0.0."""

    def random(self, size=None, dtype=np.float64, out=None):
        r = super().random(size, dtype, out)
        r[r < 0.3] = 0.0
        return r


class RampKeepsFirstOnTies:
    """The numpy module, but with a maximum that returns its first operand on
    a tie, so that max(-0.0, 0.0) is -0.0."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def maximum(a, b, out=None):
        result = np.where(b > a, b, a)
        if out is None:
            return result
        out[...] = result
        return out


def linked_model(n, edges, theta=-0.6, lam=1.5):
    """Model whose only couplings are ``edges``: 0-based (i, j, J_ij, horizon)."""
    couplings = np.zeros((n, n))
    horizons = np.zeros((n, n), dtype=int)
    for i, j, value, h in edges:
        couplings[i, j] = value
        horizons[i, j] = h
    return ModelParameters(theta=np.full(n, theta), lam=np.full(n, lam),
                           couplings=couplings, horizons=horizons)


# dependency graphs that exercise each path of the engine: process-major
# sweeps of the processes on no cycle, and the step loop of each cycle
ENGINE_MODELS = {
    # 0 feeds the two-process cycle {1, 2}
    "two_cycle_fed_upstream": lambda: linked_model(
        3, [(1, 0, 0.3, 2), (1, 2, 0.25, 3), (2, 1, 0.35, 4)]
    ),
    # horizons 1..6 on one model, and a zero-horizon pair (2, 0)
    "mixed_horizons": lambda: linked_model(
        4, [(1, 0, 0.2, 1), (2, 1, 0.15, 6), (2, 2, 0.1, 2), (3, 0, 0.3, 5), (3, 2, 0.2, 3)]
    ),
    "negative_couplings": lambda: linked_model(
        3, [(0, 0, -0.3, 3), (1, 0, -0.4, 2), (2, 1, 0.5, 4), (2, 0, -0.2, 1), (1, 2, -0.1, 2)],
        theta=-0.2,
    ),
    "acyclic_chain": lambda: linked_model(
        4, [(1, 0, 0.3, 3), (2, 1, 0.25, 2), (3, 2, 0.2, 4), (3, 0, -0.15, 1)]
    ),
    "fully_cyclic": lambda: linked_model(
        3, [(i, j, 0.1 + 0.05 * (i + 2 * j), 1 + (i + j) % 3) for i in range(3) for j in range(3)]
    ),
    "reference": build_reference_parameters,
}


def history_for(p, seed):
    rng = np.random.default_rng(seed)
    shape = (p.max_horizon, p.n)
    return np.where(rng.random(shape) < 0.5, rng.uniform(0.1, 2.0, shape), 0.0)


# models whose cycles are quiet on some stretches and busy on others, so the
# engine switches between its step loop and the sweep of a quiet stretch
QUIET_MODELS = {
    # theta + 3 J > 0: once three steps in a row lose, the process loses on
    # every step; the seven oracle trajectories lock in at steps 3 to 94
    "self_excited_lock_in": lambda: linked_model(1, [(0, 0, 0.6, 3)], theta=-1.6),
    # the cycle {1, 2} reaches back 2 steps, its feed from 0 reaches back 6
    "short_cycle_long_feed": lambda: linked_model(
        3, [(1, 0, 0.3, 6), (1, 2, 0.3, 1), (2, 1, 0.35, 2)], theta=-2.5
    ),
    # each quiet in-component term is -0.0
    "negative_self_coupling": lambda: linked_model(
        2, [(0, 0, -0.5, 3), (1, 0, 0.3, 2), (1, 1, -0.2, 2)], theta=-2.0
    ),
    "reference": build_reference_parameters,
}


def cycle_members(p):
    live = (p.horizons > 0) & (p.couplings != 0.0)
    return [i for members, cyclic in _component_order(live) if cyclic for i in members]


def start_history(p, kind):
    """A start history whose last row has a loss of a cycle member, or in
    which no cycle member has lost anything."""
    initial = history_for(p, 5)
    members = cycle_members(p)
    if kind == "ends_in_member_loss":
        initial[-1, members[0]] = 0.7
    else:
        initial[:, members] = 0.0
    return initial


def engine_losses(p, initial, n_steps, seeds):
    """The (T, B, N) losses of one batch of the engine, one seed per member."""
    out = np.empty((n_steps, len(seeds), p.n))
    generators = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    couplings = np.broadcast_to(p.couplings, (len(seeds), p.n, p.n))
    for start, block in _evolve(p, couplings, initial, n_steps, generators):
        out[start : start + block.shape[1]] = block.transpose(1, 2, 0)
    return out


def count_steps(monkeypatch, sim):
    """Wrap the step loop; returns the list of steps each call of it stepped."""
    loop, calls = sim._numpy_chunk, []

    def counted(losses, prefix, w, start, *rest):
        stop = loop(losses, prefix, w, start, *rest)
        calls.append(stop - start)
        return stop

    monkeypatch.setattr(sim, "_numpy_chunk", counted)
    return calls


def record_sweeps(monkeypatch, sim):
    """Wrap the sweep and the step loop; returns the list of events in the
    order they ran: "sweep" for a ``_sweep`` call, "quiet" for a step loop
    call that stopped before the end of its chunk."""
    events = []
    sweep, loop = sim._sweep, sim._numpy_chunk

    def swept(*args):
        events.append("sweep")
        sweep(*args)

    def counted(losses, *rest):
        stop = loop(losses, *rest)
        if stop < losses.shape[1]:
            events.append("quiet")
        return stop

    monkeypatch.setattr(sim, "_sweep", swept)
    monkeypatch.setattr(sim, "_numpy_chunk", counted)
    return events


def subcritical_steps(monkeypatch, sim):
    """Steps the step loop takes in a 20k-step reference simulate, seed 1."""
    stepped = count_steps(monkeypatch, sim)
    p = build_reference_parameters()
    simulate(p, None, 20_000, NoiseSpec(rates=p.lam, seed=1))
    return sum(stepped)


class TestSimulate:
    def test_frozen_threshold_never_crossed(self, small_parameters):
        p = ModelParameters(
            theta=[-1e6, -1e6],
            lam=[1.0, 1.0],
            couplings=small_parameters.couplings,
            horizons=small_parameters.horizons,
        )
        traj = simulate(p, None, 500, NoiseSpec(rates=p.lam, seed=7))
        assert not traj.losses.losses.any()
        assert not traj.cumulative.any()

    def test_deterministic_given_seed(self, small_parameters):
        noise = NoiseSpec(rates=small_parameters.lam, seed=123)
        a = simulate(small_parameters, None, 400, noise)
        b = simulate(small_parameters, None, 400, noise)
        assert a.losses.losses.tobytes() == b.losses.losses.tobytes()
        assert a.cumulative.tobytes() == b.cumulative.tobytes()
        assert a.seed == 123

    @pytest.mark.parametrize("case_seed", range(8))
    def test_engine_matches_naive_reference_exactly(self, case_seed):
        rng = np.random.default_rng(9000 + case_seed)
        p, initial = random_model(rng)
        n_steps = int(rng.integers(5, 80))
        seed = int(rng.integers(0, 2**63))
        expected = naive_simulate(p, initial, n_steps, seed)
        window = LossMatrix(initial)
        traj = simulate(p, window, n_steps, NoiseSpec(rates=p.lam, seed=seed))
        assert np.array_equal(traj.losses.losses, expected)

    def test_monotone_in_couplings_on_fixed_noise_path(self):
        rng = np.random.default_rng(5)
        base, initial = random_model(rng, allow_negative_j=False)
        raised_j = base.couplings.copy()
        raised_j[base.horizons > 0] += 0.2
        raised = ModelParameters(
            theta=base.theta,
            lam=base.lam,
            couplings=raised_j,
            horizons=base.horizons,
        )
        noise = NoiseSpec(rates=base.lam, seed=77)
        low = simulate(base, LossMatrix(initial), 300, noise)
        high = simulate(raised, LossMatrix(initial), 300, noise)
        assert (high.losses.losses >= low.losses.losses).all()

    def test_losses_nonnegative_and_cumulative_nondecreasing(self):
        rng = np.random.default_rng(11)
        p, initial = random_model(rng)
        traj = simulate(p, LossMatrix(initial), 250, NoiseSpec(rates=p.lam, seed=3))
        assert (traj.losses.losses >= 0).all()
        diffs = np.diff(traj.cumulative, axis=0)
        assert (diffs >= 0).all()
        assert np.array_equal(traj.cumulative, np.cumsum(traj.losses.losses, axis=0))

    def test_deeper_history_uses_its_last_max_horizon_rows(self):
        rng = np.random.default_rng(404)
        p, initial = random_model(rng)
        while p.max_horizon == 0:
            p, initial = random_model(rng)
        older = rng.uniform(0.0, 2.0, (6, p.n))
        deep = np.vstack([older, initial])
        noise = NoiseSpec(rates=p.lam, seed=17)
        from_deep = simulate(p, LossMatrix(deep), 60, noise)
        from_last = simulate(p, LossMatrix(initial), 60, noise)
        assert from_deep.losses.losses.tobytes() == from_last.losses.losses.tobytes()
        assert np.array_equal(from_deep.losses.losses, naive_simulate(p, deep, 60, 17))

    def test_run_continues_from_a_trajectory(self, small_parameters):
        p = small_parameters
        first = simulate(p, None, 30, NoiseSpec(rates=p.lam, seed=8))
        then = simulate(p, first.losses, 20, NoiseSpec(rates=p.lam, seed=9))
        expected = naive_simulate(p, first.losses.losses, 20, 9)
        assert np.array_equal(then.losses.losses, expected)

    def test_chunk_boundaries_carry_the_history(self, monkeypatch):
        # chunks are 16 384 steps long by default; shrink them so a short run
        # crosses several boundaries
        sim = importlib.import_module("oprisk_dynamics.simulate")
        rng = np.random.default_rng(808)
        p, initial = random_model(rng)
        while p.max_horizon == 0 or not initial.any():
            p, initial = random_model(rng)
        history = LossMatrix(initial)
        kwargs = dict(master_seed=3, batch_size=3)
        whole = run_ensemble(p, history, 50, 5, **kwargs)
        whole_cut = run_ensemble(p, history, 20, 5, **kwargs)
        monkeypatch.setattr(sim, "_CHUNK_STEPS", 7)
        traj = simulate(p, history, 50, NoiseSpec(rates=p.lam, seed=21))
        assert np.array_equal(traj.losses.losses, naive_simulate(p, initial, 50, 21))
        chunked = run_ensemble(p, history, 50, 5, **kwargs)
        assert chunked.mean_z.tobytes() == whole.mean_z.tobytes()
        assert chunked.std_z.tobytes() == whole.std_z.tobytes()
        assert chunked.terminal_samples.tobytes() == whole.terminal_samples.tobytes()
        chunked_cut = run_ensemble(p, history, 20, 5, **kwargs)
        assert chunked_cut.terminal_samples.tobytes() == whole_cut.terminal_samples.tobytes()

    def test_memoryless_model_runs_from_empty_history(self):
        p = ModelParameters(theta=[-1.0, -0.5], lam=[1.0, 2.0],
                            couplings=np.zeros((2, 2)), horizons=np.zeros((2, 2), int))
        noise = NoiseSpec(rates=p.lam, seed=5)
        traj = simulate(p, LossMatrix(np.zeros((0, 2))), 40, noise)
        assert np.array_equal(traj.losses.losses, simulate(p, None, 40, noise).losses.losses)
        assert np.array_equal(traj.losses.losses, naive_simulate(p, np.zeros((0, 2)), 40, 5))

    def test_short_initial_history_rejected(self, small_parameters):
        window = LossMatrix(np.zeros((1, 2)))  # model needs depth 3
        with pytest.raises(errors.HorizonExceedsHistory):
            simulate(small_parameters, window, 10, NoiseSpec(rates=small_parameters.lam, seed=0))

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_no_steps_rejected(self, small_parameters, n_steps):
        noise = NoiseSpec(rates=small_parameters.lam, seed=0)
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            simulate(small_parameters, None, n_steps, noise)

    def test_noise_rates_other_than_lambda_rejected(self, small_parameters):
        noise = NoiseSpec(rates=small_parameters.lam * 2.0, seed=0)
        with pytest.raises(ValueError, match="noise rates must equal the model lambda"):
            simulate(small_parameters, None, 10, noise)

    @pytest.mark.parametrize("case_seed", [0, 1, 2, 3, 4, 5, "two_cycle"])
    def test_long_runs_match_naive_reference(self, case_seed):
        p, initial, seed = self.long_run_case(case_seed)
        traj = simulate(p, LossMatrix(initial), 300, NoiseSpec(rates=p.lam, seed=seed))
        assert traj.losses.losses.tobytes() == naive_simulate(p, initial, 300, seed).tobytes()

    @pytest.mark.parametrize("case_seed", [0, 1, 2, 3, 4, 5, "two_cycle"])
    def test_a_batch_too_wide_to_settle_matches_naive_reference(self, case_seed):
        # one more than the widest batch that settles quiet stretches by
        # rounds: its step loop takes every busy stretch of every model
        p, initial, seed = self.long_run_case(case_seed)
        seeds = [seed + k for k in range(_SETTLE_WIDTH + 1)]
        expected = np.stack([naive_simulate(p, initial, 300, s) for s in seeds], axis=1)
        assert engine_losses(p, initial, 300, seeds).tobytes() == expected.tobytes()

    @staticmethod
    def long_run_case(case_seed):
        """A model, its start history and the seed of its long runs."""
        if case_seed == "two_cycle":
            p = ENGINE_MODELS["two_cycle_fed_upstream"]()
            return p, history_for(p, 7), 105
        p, initial = random_model(np.random.default_rng(31 + case_seed))
        return p, initial, 99 + case_seed

    @pytest.mark.parametrize("batch", [3, 5, _SETTLE_WIDTH + 1])
    def test_a_batch_matches_one_trajectory_at_a_time(self, batch):
        # batches of 3, of 5, and of one more than the widest that settles
        # quiet stretches by rounds, which steps every busy stretch, against
        # runs of one trajectory at a time, whose terminal samples are the
        # naive reference's
        p, initial = random_model(np.random.default_rng(45))
        window = LossMatrix(initial)
        m, runs = 2 * batch, {}
        for width in (1, batch):
            result, cut = (
                run_ensemble(p, window, n_steps, m, master_seed=5, batch_size=width)
                for n_steps in (200, 50)
            )
            runs[width] = [result.mean_z.tobytes(), result.std_z.tobytes(),
                           result.terminal_samples.tobytes(), cut.terminal_samples.tobytes()]
        assert runs[batch] == runs[1]
        terminal = np.stack([
            np.cumsum(naive_simulate(p, initial, 200, derive_seed(5, 1 + k)), axis=0)[-1]
            for k in range(m)
        ])
        assert runs[1][2] == terminal.tobytes()

    def test_noninteracting_marginal_law(self):
        # frequency of nonzero losses ~ exp(lambda * theta); nonzero sizes ~ Exp(lambda)
        lam, theta, n_steps = 2.0, -1.0, 40000
        p = ModelParameters(theta=[theta], lam=[lam], couplings=[[0.0]], horizons=[[0]])
        traj = simulate(p, None, n_steps, NoiseSpec(rates=p.lam, seed=2024))
        losses = traj.losses.losses.ravel()
        nonzero = losses[losses > 0]
        expected_freq = np.exp(lam * theta)
        assert abs(nonzero.size / n_steps - expected_freq) < 0.009  # ~5 sigma
        assert abs(nonzero.mean() - 1.0 / lam) < 0.04


@pytest.fixture
def negative_zero_noise(monkeypatch):
    """Let a -0.0 before the engine's ramp show in its losses; returns the
    simulate module.

    Every generator reads its draws below 0.3 as 0.0, whose noise is -0.0,
    and the engine's ramp keeps its first operand on a tie, as a host's
    maximum may (NumPy's here returns the second). A loss is then -0.0
    exactly where the engine's acc + theta is -0.0; the oracle's never is.
    """
    monkeypatch.setattr(np.random, "Generator", ZeroDrawGenerator)
    sim = importlib.import_module("oprisk_dynamics.simulate")
    monkeypatch.setattr(sim, "np", RampKeepsFirstOnTies())
    return sim


# a single trajectory, the narrowest batch that settles no quiet stretch by
# rounds, and the narrowest whose running sums add one row at a time
SIGNED_ZERO_WIDTHS = (1, _SETTLE_WIDTH + 1, _ROW_SCAN_WIDTH)


class TestSignedZeros:
    """Thresholds of +0.0 and -0.0 and couplings that are negative or +-0.0
    give the oracle's losses bit for bit, with noise of -0.0 on many steps,
    whatever the batch."""

    @pytest.mark.parametrize("width", SIGNED_ZERO_WIDTHS)
    @pytest.mark.parametrize("case_seed", range(5))
    def test_each_width_matches_naive_reference(self, negative_zero_noise, case_seed, width):
        p, initial = signed_zero_model(np.random.default_rng(7700 + case_seed))
        n_steps, seeds = 40, [derive_seed(case_seed, m) for m in range(width)]
        expected = np.stack([naive_simulate(p, initial, n_steps, s) for s in seeds], axis=1)
        got = engine_losses(p, initial, n_steps, seeds)
        assert got.tobytes() == expected.tobytes()
        traj = simulate(p, LossMatrix(initial), n_steps, NoiseSpec(rates=p.lam, seed=seeds[0]))
        assert traj.losses.losses.tobytes() == expected[:, 0].tobytes()

    @pytest.mark.parametrize("case_seed", range(5))
    def test_batch_size_never_changes_an_ensemble(self, negative_zero_noise, case_seed):
        p, initial = signed_zero_model(np.random.default_rng(7700 + case_seed))
        n_steps, m_traj, master = 40, _ROW_SCAN_WIDTH, 100 + case_seed
        runs = [
            run_ensemble(p, LossMatrix(initial), n_steps, m_traj, master, batch_size=batch)
            for batch in SIGNED_ZERO_WIDTHS
        ]
        for other in runs[1:]:
            for name in ("mean_z", "std_z", "terminal_samples"):
                assert getattr(other, name).tobytes() == getattr(runs[0], name).tobytes()
        paths = [naive_simulate(p, initial, n_steps, derive_seed(master, 1 + m))
                 for m in range(m_traj)]
        terminal = np.stack([np.cumsum(path, axis=0)[-1] for path in paths])
        assert runs[0].terminal_samples.tobytes() == terminal.tobytes()


class TestDependencyOrder:
    def test_reference_components_run_upstream_first(self):
        p = build_reference_parameters()
        live = (p.horizons > 0) & (p.couplings != 0.0)
        order = [([i + 1 for i in members], cyclic) for members, cyclic in _component_order(live)]
        position = {tuple(members): k for k, (members, _) in enumerate(order)}
        assert sorted(position) == [(1,), (2,), (3,), (4,), (5,)]
        assert position[(2,)] < position[(1,)]
        assert position[(3,)] < position[(4,)]
        assert position[(3,)] < position[(5,)]
        assert position[(1,)] < position[(5,)]
        assert [members for members, cyclic in order if cyclic] == [[3]]

    def test_cycles_are_grouped_and_ordered(self):
        p = ENGINE_MODELS["two_cycle_fed_upstream"]()
        live = (p.horizons > 0) & (p.couplings != 0.0)
        assert _component_order(live) == [([0], False), ([1, 2], True)]
        p = ENGINE_MODELS["acyclic_chain"]()
        live = (p.horizons > 0) & (p.couplings != 0.0)
        assert _component_order(live) == [([0], False), ([1], False), ([2], False), ([3], False)]

    @pytest.mark.parametrize("budget", [None, 3, 21])
    @pytest.mark.parametrize("name", sorted(ENGINE_MODELS))
    def test_engine_matches_naive_reference(self, monkeypatch, name, budget):
        # a budget of 3 gives chunks shorter than the longest horizon, so the
        # prefix counts carry across many boundaries; a 6-step tile splits
        # each sweep of a chunk into several tiles
        sim = importlib.import_module("oprisk_dynamics.simulate")
        if budget is not None:
            monkeypatch.setattr(sim, "_CHUNK_BUDGET", budget)
            monkeypatch.setattr(sim, "_SWEEP_TILE", 6)
        p = ENGINE_MODELS[name]()
        initial = history_for(p, 61)
        n_steps = 90
        traj = simulate(p, LossMatrix(initial), n_steps, NoiseSpec(rates=p.lam, seed=13))
        assert np.array_equal(traj.losses.losses, naive_simulate(p, initial, n_steps, 13))
        paths = np.stack([
            np.cumsum(naive_simulate(p, initial, n_steps, derive_seed(29, 1 + m)), axis=0)
            for m in range(4)
        ])
        for s in (1, 45, n_steps):
            result = run_ensemble(p, LossMatrix(initial), s, 4, master_seed=29, batch_size=3)
            assert np.array_equal(result.terminal_samples, paths[:, s - 1])

    @pytest.mark.parametrize("budget", [None, 7])
    @pytest.mark.parametrize("history", ["ends_in_member_loss", "quiet"])
    @pytest.mark.parametrize("name", sorted(QUIET_MODELS))
    def test_quiet_stretches_match_naive_reference(self, monkeypatch, name, history, budget):
        # a budget of 7 with 5-step tiles makes the quiet stretches cross
        # chunk and tile boundaries at every batch size
        sim = importlib.import_module("oprisk_dynamics.simulate")
        if budget is not None:
            monkeypatch.setattr(sim, "_CHUNK_BUDGET", budget)
            monkeypatch.setattr(sim, "_SWEEP_TILE", 5)
        p = QUIET_MODELS[name]()
        initial = start_history(p, history)
        n_steps, seeds = 150, [derive_seed(41, m) for m in range(7)]
        expected = np.stack([naive_simulate(p, initial, n_steps, seed) for seed in seeds], axis=1)
        stepped = count_steps(monkeypatch, sim)
        events = record_sweeps(monkeypatch, sim)
        for batch in (1, 2, 3, 7):
            for first in range(0, 7, batch):
                got = engine_losses(p, initial, n_steps, seeds[first : first + batch])
                assert np.array_equal(got, expected[:, first : first + batch])
            if batch == 1:
                single_steps, single_sweeps = sum(stepped), events.count("sweep")
        # one trajectory at a time, the rounds ran: the same runs without
        # them sweep only for the held sweeps
        monkeypatch.setattr(sim, "_SETTLE_ROUNDS", 0)
        events.clear()
        for seed in seeds:
            engine_losses(p, initial, n_steps, [seed])
        assert single_sweeps > events.count("sweep")
        # a member loss at the end of the start history, or a run of losses
        # that outlasts the rounds, is still stepped
        if history == "ends_in_member_loss" or name == "self_excited_lock_in":
            assert single_steps > 0

    def test_step_loop_runs_on_few_steps_of_a_subcritical_run(self, monkeypatch):
        # the reference model's process 3 loses on about 1% of its steps, so
        # it is within reach (5 steps) of its own losses on few of them, and
        # the rounds settle nearly all of those without the step loop
        sim = importlib.import_module("oprisk_dynamics.simulate")
        assert subcritical_steps(monkeypatch, sim) < 0.01 * 20_000

    def test_without_rounds_the_step_loop_takes_every_busy_step(self, monkeypatch):
        # the same run steps wherever the cycle is within reach of a loss
        sim = importlib.import_module("oprisk_dynamics.simulate")
        monkeypatch.setattr(sim, "_SETTLE_ROUNDS", 0)
        assert 0 < subcritical_steps(monkeypatch, sim) < 0.25 * 20_000

    @pytest.mark.parametrize("budget", [None, 7])
    @pytest.mark.parametrize("history", ["ends_in_member_loss", "quiet"])
    @pytest.mark.parametrize("name", sorted(QUIET_MODELS))
    def test_settling_rounds_change_no_loss(self, monkeypatch, name, history, budget):
        # the rounds decide only which steps the step loop takes, so without
        # them every batch gets the same bytes, on both sides of the width
        # above which they do not run; a budget of 7 with 5-step tiles makes
        # the rounds cross chunk and tile boundaries
        sim = importlib.import_module("oprisk_dynamics.simulate")
        if budget is not None:
            monkeypatch.setattr(sim, "_CHUNK_BUDGET", budget)
            monkeypatch.setattr(sim, "_SWEEP_TILE", 5)
        p = QUIET_MODELS[name]()
        initial = start_history(p, history)
        width = sim._SETTLE_WIDTH
        seeds = [derive_seed(43, m) for m in range(width + 1)]
        default, runs = sim._SETTLE_ROUNDS, {}
        for rounds in (default, 0):
            monkeypatch.setattr(sim, "_SETTLE_ROUNDS", rounds)
            runs[rounds] = [engine_losses(p, initial, 150, seeds[:batch]).tobytes()
                            for batch in (1, 3, width, width + 1)]
        assert runs[default] == runs[0]

    @pytest.mark.parametrize("batch", [1, _SETTLE_WIDTH, _SETTLE_WIDTH + 1])
    @pytest.mark.parametrize("name", ["reference", "short_cycle_long_feed"])
    def test_batch_width_picks_whether_rounds_run(self, monkeypatch, name, batch):
        # a batch of at most _SETTLE_WIDTH trajectories re-sweeps its quiet
        # stretches by rounds, and a wider one sweeps each only once, on the
        # reference model's self-coupled process 3 and on a two-member cycle
        sim = importlib.import_module("oprisk_dynamics.simulate")
        events = record_sweeps(monkeypatch, sim)
        p = QUIET_MODELS[name]()
        initial = start_history(p, "quiet")
        default, sweeps = sim._SETTLE_ROUNDS, {}
        for rounds in (default, 0):
            monkeypatch.setattr(sim, "_SETTLE_ROUNDS", rounds)
            events.clear()
            engine_losses(p, initial, 2000, range(batch))
            assert "quiet" in events
            sweeps[rounds] = events.count("sweep")
        if batch <= sim._SETTLE_WIDTH:
            assert sweeps[default] > sweeps[0]
        else:
            assert sweeps[default] == sweeps[0]

    @pytest.mark.parametrize("batch", [1, 7])
    def test_rounds_per_quiet_entry_are_capped(self, monkeypatch, batch):
        # once self_excited_lock_in has lost on three steps in a row it loses
        # on every step, a run that outlasts any number of rounds; a quiet
        # entry sweeps its one member at most once for the held sweep and
        # once per round
        sim = importlib.import_module("oprisk_dynamics.simulate")
        events = record_sweeps(monkeypatch, sim)
        p = QUIET_MODELS["self_excited_lock_in"]()
        initial = start_history(p, "quiet")
        seeds = [derive_seed(41, m) for m in range(7)]
        for first in range(0, 7, batch):
            engine_losses(p, initial, 150, seeds[first : first + batch])
        first_entry, *entries = " ".join(events).split("quiet")
        sweeps = [entry.split().count("sweep") for entry in entries]
        assert first_entry.split() == []
        assert max(sweeps) == sim._SETTLE_ROUNDS + 1


class TestCumulative:
    def test_examples(self):
        assert np.array_equal(
            cumulative(np.array([[1.0], [0.0], [2.0]])), [[1.0], [1.0], [3.0]]
        )
        assert not cumulative(np.zeros((3, 2))).any()
        assert np.array_equal(
            cumulative(np.array([[0.5], [0.5], [0.5]])), [[0.5], [1.0], [1.5]]
        )

    def test_accepts_loss_matrix(self):
        m = LossMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(cumulative(m), [[1.0, 2.0], [4.0, 6.0]])

    @given(
        st.lists(
            st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=2),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_prefix_sum(self, rows):
        arr = np.array(rows)
        assert np.array_equal(cumulative(arr), np.add.accumulate(arr, axis=0))


class TestRunningSum:
    """``_running_sum`` adds row by row on wide batches and calls np.cumsum on
    narrow ones; both must give cumsum's bits, base first."""

    WIDTHS = (1, _ROW_SCAN_WIDTH - 1, _ROW_SCAN_WIDTH, _ROW_SCAN_WIDTH + 37)

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_floats_match_cumsum_bit_for_bit(self, width, in_place):
        rng = np.random.default_rng(width)
        values = rng.standard_normal((40, width)) * 10.0 ** rng.integers(-8, 8, (40, width))
        values[rng.random(values.shape) < 0.2] = -0.0
        values[:2] = -0.0  # a run of -0.0 from a -0.0 base stays -0.0
        base = rng.standard_normal(width)
        base[::2] = -0.0
        expected = np.cumsum(np.concatenate([base[None], values]), axis=0)[1:]
        out = values if in_place else np.empty_like(values)
        _running_sum(values, out, base)
        assert out.tobytes() == expected.tobytes()
        assert np.signbit(out[:2, ::2]).all()

    @pytest.mark.parametrize("rows", [1, 2, 33])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_counts_match_cumsum(self, width, rows):
        rng = np.random.default_rng(rows * width)
        values = rng.random((rows, width)) < 0.3
        base = rng.integers(0, 1000, width).astype(np.int32)
        out = np.full((rows, width), -1, dtype=np.int32)
        _running_sum(values, out, base)
        expected = base + np.cumsum(values, axis=0, dtype=np.int32)
        assert out.dtype == np.int32
        assert np.array_equal(out, expected)
