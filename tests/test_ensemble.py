"""Ensemble aggregation, seed derivation, and nearest-rank VaR.

The ensemble oracle is the public single-trajectory simulator: an ensemble
must equal M separate simulate() calls with the derived per-trajectory seeds,
aggregated in trajectory order. Batch size must never change a single bit.
"""

import importlib
import logging
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oprisk_dynamics import errors
from oprisk_dynamics.ensemble import (
    _trajectory_generators,
    derive_seed,
    parameters_from_estimates,
    run_ensemble,
    var,
)
from oprisk_dynamics.estimate import (
    EstimateSet,
    LossEvents,
    classify_events,
    collapse_estimates,
    collapse_precision,
)
from oprisk_dynamics.model import LossMatrix, ModelParameters, NoiseSpec
from oprisk_dynamics.simulate import _ROW_SCAN_WIDTH, _SCALAR_BATCH, _component_order, simulate

from conftest import brute_force_var, build_reference_parameters, exact_law, hand_estimates


class TestDeriveSeed:
    def test_known_answer_vectors(self):
        # first three outputs of a splitmix64 generator seeded with 0
        assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
        assert derive_seed(0, 2) == 0x06C45D188009454F

    def test_deterministic_and_in_range(self):
        assert derive_seed(123, 45) == derive_seed(123, 45)
        for stream in range(50):
            s = derive_seed(987654321, stream)
            assert 0 <= s < 2**64

    def test_streams_are_distinct(self):
        seeds = {derive_seed(7, k) for k in range(2000)}
        assert len(seeds) == 2000

    def test_masters_are_distinct(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.uint64(2**64 - 1)])
    def test_numpy_integer_master_seeds_match_the_int(self, seed):
        for stream in (0, 3, 2**40):
            assert derive_seed(seed, stream) == derive_seed(int(seed), stream)
            assert type(derive_seed(seed, stream)) is int

    def test_rejects_master_seeds_beyond_64_bits(self):
        # the derivation works modulo 2**64, so 2**64 + k would alias k
        assert derive_seed(2**64 - 1, 0) >= 0
        with pytest.raises(ValueError, match="master_seed"):
            derive_seed(2**64, 0)


class TestTrajectoryGenerators:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1] + [derive_seed(5, k) for k in range(400)]

    def test_equal_to_pcg64_seeded_with_each_seed(self):
        # the SeedSequence words are computed for the whole batch at once;
        # each generator must still be PCG64(seed), state and stream
        generators = _trajectory_generators(self.SEEDS)
        assert len(generators) == len(self.SEEDS)
        for seed, gen in zip(self.SEEDS, generators):
            reference = np.random.Generator(np.random.PCG64(seed))
            assert gen.bit_generator.state == reference.bit_generator.state, seed
            assert gen.random(37).tobytes() == reference.random(37).tobytes(), seed
            out, expected = np.empty((3, 5)), np.empty((3, 5))
            gen.random(out=out)
            reference.random(out=expected)
            assert out.tobytes() == expected.tobytes(), seed

    def test_one_seed_and_repeated_seeds(self):
        a, b = _trajectory_generators([2**40 + 3, 2**40 + 3])
        (c,) = _trajectory_generators([2**40 + 3])
        assert a is not b
        assert a.random(4).tobytes() == b.random(4).tobytes() == c.random(4).tobytes()


class TestVar:
    def test_hand_examples(self):
        assert var([10.0, 20.0, 30.0, 40.0], 0.5) == 20.0
        assert var(np.arange(1.0, 1001.0), 0.999) == 999.0
        samples = np.arange(1.0, 10001.0)
        assert var(samples, 0.999) == 9990.0  # rank ceil(0.999 * 10000)

    def test_order_of_input_is_irrelevant(self):
        rng = np.random.default_rng(5)
        samples = rng.exponential(size=401)
        shuffled = rng.permutation(samples)
        assert var(samples, 0.95) == var(shuffled, 0.95)

    def test_empty_and_bad_confidence(self):
        with pytest.raises(errors.EmptySample):
            var([], 0.5)
        for bad in (0.0, 1.0, -0.1, 1.5, np.nan):
            with pytest.raises(errors.InvalidOrder):
                var([1.0, 2.0], bad)

    def test_single_sample_any_confidence(self):
        assert var([3.25], 0.001) == 3.25
        assert var([3.25], 0.999) == 3.25

    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=80
        ),
        confidence=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, samples, confidence):
        assert var(samples, confidence) == brute_force_var(samples, confidence)

    @given(
        samples=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40
        ),
        c1=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        c2=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_and_bounded(self, samples, c1, c2):
        lo, hi = min(c1, c2), max(c1, c2)
        assert var(samples, lo) <= var(samples, hi)
        assert min(samples) <= var(samples, lo) <= max(samples)


def manual_ensemble(p, initial, n_steps, m_trajectories, master_seed):
    """Trajectory-by-trajectory oracle built on the public simulator."""
    paths = []
    for m in range(m_trajectories):
        seed = derive_seed(master_seed, 1 + m)
        traj = simulate(p, initial, n_steps, NoiseSpec(rates=p.lam, seed=seed))
        paths.append(traj.cumulative)
    return np.stack(paths)  # (M, T, N)


def reference_candidates(theta) -> EstimateSet:
    """The reference model's couplings as two candidates per pair, the second
    1.5 times the first, with thresholds ``theta``."""
    ref = build_reference_parameters()
    candidates = {}
    for i, j in zip(*np.nonzero(ref.couplings)):
        candidates[i, j, 1] = (ref.couplings[i, j], 40)
        candidates[i, j, 2] = (1.5 * ref.couplings[i, j], 20)
    return hand_estimates(theta, ref.lam, ref.horizons, candidates)


class TestRunEnsemble:
    @pytest.mark.parametrize("with_initial", [False, True])
    def test_matches_per_trajectory_simulation(self, small_parameters, with_initial):
        p = small_parameters
        initial = None
        if with_initial:
            initial = LossMatrix(np.array([[0.0, 1.5], [2.0, 0.0], [0.0, 0.3]]))
        result = run_ensemble(p, initial, n_steps=240, m_trajectories=5, master_seed=99)
        cut = run_ensemble(p, initial, n_steps=7, m_trajectories=5, master_seed=99)
        stack = manual_ensemble(p, initial, 240, 5, master_seed=99)

        assert np.array_equal(result.terminal_samples, stack[:, -1, :])
        assert np.array_equal(cut.terminal_samples, stack[:, 6, :])
        np.testing.assert_allclose(result.mean_z, stack.mean(axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            result.std_z, stack.std(axis=0, ddof=1), rtol=1e-7, atol=1e-10
        )

    def test_two_trajectory_statistics(self, small_parameters):
        # unbiased denominator: mean (a+b)/2, std sqrt((a-b)^2/2) per entry
        result = run_ensemble(small_parameters, None, 50, 2, master_seed=3)
        stack = manual_ensemble(small_parameters, None, 50, 2, master_seed=3)
        a, b = stack[0], stack[1]
        np.testing.assert_allclose(result.mean_z, (a + b) / 2.0, rtol=1e-12, atol=0)
        # one-pass variance cancels ~1e-10 of precision when std << mean
        np.testing.assert_allclose(
            result.std_z, np.abs(a - b) / np.sqrt(2.0), rtol=1e-7, atol=1e-10
        )

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 64])
    def test_batch_size_never_changes_results(self, small_parameters, batch_size):
        baseline = run_ensemble(small_parameters, None, 150, 7, master_seed=11, batch_size=7)
        other = run_ensemble(small_parameters, None, 150, 7, master_seed=11, batch_size=batch_size)
        assert np.array_equal(baseline.mean_z, other.mean_z)
        assert np.array_equal(baseline.std_z, other.std_z)
        assert np.array_equal(baseline.terminal_samples, other.terminal_samples)
        cut = [run_ensemble(small_parameters, None, 33, 7, master_seed=11, batch_size=b)
               for b in (7, batch_size)]
        assert np.array_equal(cut[0].terminal_samples, cut[1].terminal_samples)

    @pytest.mark.parametrize("batch_size", [1, 2, 3])
    def test_batch_size_never_changes_one_process_results(self, batch_size):
        # with N = 1 the trajectory axis of a chunk is contiguous, where a
        # reduction across it could take NumPy's pairwise summation
        p = ModelParameters(theta=[-0.5], lam=[1.5], couplings=[[0.3]], horizons=[[4]])
        baseline = run_ensemble(p, None, 150, 7, master_seed=4, batch_size=7)
        other = run_ensemble(p, None, 150, 7, master_seed=4, batch_size=batch_size)
        assert np.array_equal(baseline.mean_z, other.mean_z)
        assert np.array_equal(baseline.std_z, other.std_z)
        assert np.array_equal(baseline.terminal_samples, other.terminal_samples)

    @pytest.mark.parametrize("case", ["reference", "one_process_one_step"])
    @pytest.mark.parametrize("batch_size", [1, 63, 64, 65])
    def test_batch_size_across_the_summation_groups(self, reference_parameters, case,
                                                    batch_size):
        # the running sums take up to 64 trajectories per ordered reduction,
        # so batches of 63, 64, 65 and M = 130 cut those groups differently;
        # one process over one step makes each chunk row a single value
        if case == "reference":
            p, n_steps = reference_parameters, 40
        else:
            p = ModelParameters(theta=[0.5], lam=[1.5], couplings=[[0.0]], horizons=[[0]])
            n_steps = 1
        baseline = run_ensemble(p, None, n_steps, 130, 17, batch_size=130)
        other = run_ensemble(p, None, n_steps, 130, 17, batch_size=batch_size)
        assert baseline.mean_z.tobytes() == other.mean_z.tobytes()
        assert baseline.std_z.tobytes() == other.std_z.tobytes()
        assert baseline.terminal_samples.tobytes() == other.terminal_samples.tobytes()
        cut = [run_ensemble(p, None, 1, 130, 17, batch_size=b) for b in (130, batch_size)]
        assert cut[0].terminal_samples.tobytes() == cut[1].terminal_samples.tobytes()

    def test_wide_batch_matches_narrow_batches_and_simulate(self, monkeypatch):
        # A batch of M >= _ROW_SCAN_WIDTH takes the row-add branch of the
        # running sums in run_ensemble and _sweep; batches of 7 and simulate
        # take np.cumsum. _cycle holds its members' counts over a quiet
        # stretch and runs no sum. Process 3's threshold is lowered to -1.65
        # (spontaneous losses 0.0005 per step instead of 0.01), so that all
        # M trajectories are sometimes quiet at once and _cycle sweeps.
        sim = importlib.import_module("oprisk_dynamics.simulate")
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        m_traj, n_steps, master = _ROW_SCAN_WIDTH + 44, 300, 23
        ref = build_reference_parameters()
        theta = ref.theta.copy()
        theta[2] = -1.65
        est = reference_candidates(theta)
        wide_calls = set()

        def recorded(values, out, base, scan=sim._running_sum):
            if out.shape[1] >= _ROW_SCAN_WIDTH and out.shape[0] > 1:
                wide_calls.add(sys._getframe(1).f_code.co_name)
            scan(values, out, base)

        monkeypatch.setattr(sim, "_running_sum", recorded)
        monkeypatch.setattr(ens, "_running_sum", recorded)
        # one process, so the whole batch is one part and its calls are seen
        monkeypatch.setattr(ens, "_part_count", lambda width: 1)
        wide = run_ensemble(est, None, n_steps, m_traj, master)
        assert wide_calls == {"_evolve_part", "_sweep"}
        narrow = run_ensemble(est, None, n_steps, m_traj, master, batch_size=7)
        for name in ("mean_z", "std_z", "terminal_samples"):
            assert getattr(wide, name).tobytes() == getattr(narrow, name).tobytes()
        wide_cut = {}
        for s in (1, 150):
            wide_cut[s] = run_ensemble(est, None, s, m_traj, master)
            narrow_cut = run_ensemble(est, None, s, m_traj, master, batch_size=7)
            assert wide_cut[s].terminal_samples.tobytes() == narrow_cut.terminal_samples.tobytes()

        drawn = collapse_estimates(est, m_traj, derive_seed(master, 0))
        for m in range(m_traj):
            p = ModelParameters(theta=theta, lam=ref.lam, couplings=drawn[m], horizons=ref.horizons)
            z = simulate(p, None, n_steps, NoiseSpec(rates=p.lam, seed=derive_seed(master, 1 + m)))
            assert wide.terminal_samples[m].tobytes() == z.cumulative[-1].tobytes()
            assert wide_cut[150].terminal_samples[m].tobytes() == z.cumulative[149].tobytes()

    def test_chunk_boundaries_carry_the_running_sums(self, small_parameters, monkeypatch):
        # a batch of 7 gets 280 // 7 = 40 steps per chunk: T = 150 spans
        # chunks starting at steps 1, 41, 81 and 121
        sim = importlib.import_module("oprisk_dynamics.simulate")
        p = small_parameters
        whole = run_ensemble(p, None, 150, 7, master_seed=11, batch_size=7)
        monkeypatch.setattr(sim, "_CHUNK_BUDGET", 280)
        chunked = run_ensemble(p, None, 150, 7, master_seed=11, batch_size=7)
        stack = manual_ensemble(p, None, 150, 7, master_seed=11)
        assert np.array_equal(chunked.terminal_samples, stack[:, -1, :])
        for s in (1, 40, 41, 80, 121):
            cut = run_ensemble(p, None, s, 7, master_seed=11, batch_size=7)
            assert np.array_equal(cut.terminal_samples, stack[:, s - 1, :])
        assert np.array_equal(chunked.mean_z, whole.mean_z)
        assert np.array_equal(chunked.std_z, whole.std_z)

    @pytest.mark.parametrize("source", ["parameters", "sample-per-run"])
    @pytest.mark.parametrize(
        "width", [_SCALAR_BATCH, _SCALAR_BATCH + 1, _ROW_SCAN_WIDTH - 1, _ROW_SCAN_WIDTH]
    )
    def test_a_cut_run_reproduces_the_longer_runs_statistics(self, monkeypatch, source, width):
        # a run of s steps has the bits of a longer run's first s steps, so
        # its terminal samples are that run's cross-section at step s.
        # Chunks of 40 steps put s = 40 and 80 on a boundary, between s = 39
        # and 41 and between s = 79 and 81
        sim = importlib.import_module("oprisk_dynamics.simulate")
        monkeypatch.setattr(sim, "_CHUNK_BUDGET", 40 * width)
        src = build_reference_parameters()
        if source == "sample-per-run":
            src = reference_candidates(src.theta)
        kwargs = dict(master_seed=31, batch_size=width)
        longer = run_ensemble(src, None, 120, width, **kwargs)
        for s in (1, 39, 40, 41, 79, 80, 81):
            cut = run_ensemble(src, None, s, width, **kwargs)
            assert cut.mean_z.tobytes() == longer.mean_z[:s].tobytes()
            assert cut.std_z.tobytes() == longer.std_z[:s].tobytes()

    def test_memory_is_bounded_by_the_chunk_not_the_length(self, small_parameters,
                                                           monkeypatch):
        # a (T, batch, N) float64 buffer alone would take 20 000 x 256 x 2 x 8
        # bytes = 82 MB; the chunk's noise and loss blocks take 2 x 2**17 x 2 x 8
        # bytes = 4.2 MB, and the (T, N) aggregates 0.6 MB. It runs in one
        # process: tracemalloc sees neither a forked part's allocations nor
        # the mapping the parts share
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        monkeypatch.setattr(ens, "_part_count", lambda width: 1)
        tracemalloc.start()
        try:
            run_ensemble(small_parameters, None, 20_000, 256, master_seed=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_aggregate_invariants(self, small_parameters):
        result = run_ensemble(small_parameters, None, 300, 24, master_seed=8)
        assert np.all(np.diff(result.mean_z, axis=0) >= 0.0)
        assert np.all(result.std_z >= 0.0)
        assert result.terminal_samples.shape == (24, 2)
        assert result.m_trajectories == 24
        assert result.master_seed == 8

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7)])
    def test_numpy_integer_master_seed_gives_the_int_seeds_bits(self, small_parameters, seed):
        expected = run_ensemble(small_parameters, None, 10, 4, 7)
        result = run_ensemble(small_parameters, None, 10, 4, seed)
        assert result.terminal_samples.tobytes() == expected.terminal_samples.tobytes()
        assert result.mean_z.tobytes() == expected.mean_z.tobytes()
        assert type(result.master_seed) is int and result.master_seed == 7

    def test_deeply_subcritical_model_is_identically_zero(self):
        p = ModelParameters(
            theta=np.array([-60.0, -60.0]),
            lam=np.array([1.0, 1.0]),
            couplings=np.zeros((2, 2)),
            horizons=np.zeros((2, 2), dtype=int),
        )
        result = run_ensemble(p, None, 200, 6, master_seed=1)
        assert not result.mean_z.any()
        assert not result.std_z.any()
        assert not result.terminal_samples.any()

    def test_argument_validation(self, small_parameters):
        with pytest.raises(ValueError):
            run_ensemble(small_parameters, None, 10, 1, master_seed=0)
        with pytest.raises(ValueError):
            run_ensemble(small_parameters, None, 0, 2, master_seed=0)
        with pytest.raises(ValueError):
            run_ensemble(small_parameters, None, 10, 2, master_seed=0, batch_size=0)

    @pytest.mark.parametrize(
        ("initial", "error"),
        [
            (LossMatrix(np.zeros((3, 3))), errors.DimensionMismatch),
            (LossMatrix(np.zeros((1, 2))), errors.HorizonExceedsHistory),
        ],
    )
    def test_bad_initial_history_rejected_like_simulate(self, small_parameters, initial, error):
        p = small_parameters
        with pytest.raises(error):
            simulate(p, initial, 10, NoiseSpec(rates=p.lam, seed=0))
        with pytest.raises(error):
            run_ensemble(p, initial, 10, 2, master_seed=0)

    def test_noninteracting_mean_grows_linearly(self):
        # isolated process: mean z(t) ~ t * p / lambda
        p_loss = 0.05
        lam = np.log(p_loss) / -1.0
        p = ModelParameters(
            theta=np.array([-1.0]),
            lam=np.array([lam]),
            couplings=np.zeros((1, 1)),
            horizons=np.zeros((1, 1), dtype=int),
        )
        result = run_ensemble(p, None, 4000, 300, master_seed=17)
        t = np.arange(2000, 4000, dtype=float)
        y = result.mean_z[2000:, 0]
        slope, intercept = np.polyfit(t, y, 1)
        fitted = slope * t + intercept
        ss_res = float(((y - fitted) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        assert 1.0 - ss_res / ss_tot > 0.99
        assert slope == pytest.approx(p_loss / lam, rel=0.1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """A batch cut into parts, each past the first in a forked child, adds
    its sums in trajectory order through the shared mapping."""

    @pytest.mark.parametrize("case", ["parameters", "sample-per-run", "initial", "short-chunks"])
    def test_part_count_never_changes_results(self, monkeypatch, case):
        # parts of unequal widths take chunks of unequal lengths, and a
        # batch of M = 11 in batches of 4 has a last batch of 3
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        sim = importlib.import_module("oprisk_dynamics.simulate")
        ref = build_reference_parameters()
        src, initial = ref, None
        if case == "sample-per-run":
            src = reference_candidates(ref.theta)
        elif case == "initial":
            history = np.zeros((6, 5))
            history[[0, 2, 3, 5], [2, 2, 0, 4]] = [0.7, 1.2, 0.4, 2.5]
            initial = LossMatrix(history)
        elif case == "short-chunks":
            monkeypatch.setattr(sim, "_CHUNK_BUDGET", 97)
        for m_traj, batch_size in [(7, 7), (11, 4), (130, 64), (300, 1024)]:
            results = []
            for parts in (1, 2, 3):
                monkeypatch.setattr(ens, "_part_count",
                                    lambda width, parts=parts: min(parts, width))
                results.append(run_ensemble(src, initial, 90, m_traj, 29, batch_size=batch_size))
            for other in results[1:]:
                for name in ("mean_z", "std_z", "terminal_samples"):
                    assert getattr(other, name).tobytes() == getattr(results[0], name).tobytes()
        assert_no_child_left()

    def test_a_failing_child_fails_the_run_and_leaves_no_child(self, monkeypatch,
                                                               small_parameters):
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        caller, add = os.getpid(), ens._add_in_order

        def failing(sums, z):
            if os.getpid() != caller:
                raise ValueError("a part fails")
            add(sums, z)

        monkeypatch.setattr(ens, "_add_in_order", failing)
        monkeypatch.setattr(ens, "_part_count", lambda width: min(3, width))
        with pytest.raises(RuntimeError, match="worker processes failed"):
            run_ensemble(small_parameters, None, 200, 30, master_seed=5)
        assert_no_child_left()

    def test_an_interrupted_caller_leaves_no_child(self, monkeypatch, small_parameters):
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        caller, add, calls = os.getpid(), ens._add_in_order, []

        def interrupted(sums, z):
            if os.getpid() == caller:
                calls.append(z.shape)
                if len(calls) == 2:
                    raise KeyboardInterrupt
            add(sums, z)

        monkeypatch.setattr(ens, "_add_in_order", interrupted)
        monkeypatch.setattr(ens, "_part_count", lambda width: min(3, width))
        monkeypatch.setattr(importlib.import_module("oprisk_dynamics.simulate"),
                            "_CHUNK_BUDGET", 100)
        with pytest.raises(KeyboardInterrupt):
            run_ensemble(small_parameters, None, 200, 30, master_seed=5)
        assert_no_child_left()

    def test_the_part_rule(self, monkeypatch):
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        least = ens._MIN_PART
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        widths = [1, 2 * least - 1, 2 * least, 3 * least, 100 * least]
        assert [ens._part_count(w) for w in widths] == [1, 1, 2, 3, 3]
        assert ens._part_bounds(10, 10 + 3 * least + 2) == [
            10, 10 + least, 10 + 2 * least + 1, 10 + 3 * least + 2
        ]
        with monkeypatch.context() as patch:
            patch.delattr(os, "sched_getaffinity")
            patch.setattr(os, "cpu_count", lambda: 2)
            assert ens._part_count(100 * least) == 2
            patch.setattr(os, "cpu_count", lambda: None)
            assert ens._part_count(100 * least) == 1
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            assert ens._part_count(100 * least) == 1
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert ens._part_count(100 * least) == 1
        finally:
            release.set()
            other.join()
        assert ens._part_count(100 * least) == 3

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5])
    def test_a_bad_master_seed_is_rejected_before_the_batch_forks(self, monkeypatch, seed):
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        monkeypatch.setattr(ens, "_part_count", lambda width: 2)

        def too_early(*args):
            raise AssertionError("shared memory mapped or parts forked before the seed check")

        monkeypatch.setattr(ens, "_shared_zeros", too_early)
        monkeypatch.setattr(ens, "_fork_parts", too_early)
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
            run_ensemble(build_reference_parameters(), None, 10, 300, seed)

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="os.fork warns from Python 3.12")
    def test_forking_a_batch_raises_no_thread_warning(self, monkeypatch, small_parameters):
        # from 3.12, os.fork warns when the process has another OS thread;
        # NumPy's OpenBLAS threads are stopped by its own fork handler
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        forks, fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(ens, "_part_count", lambda width: min(2, width))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_ensemble(small_parameters, None, 50, 8, master_seed=3)
        assert forks
        assert [str(w.message) for w in caught if "multi-threaded" in str(w.message)] == []
        assert_no_child_left()

    def test_each_batch_logs_its_processes(self, monkeypatch, caplog, small_parameters):
        ens = importlib.import_module("oprisk_dynamics.ensemble")
        monkeypatch.setattr(ens, "_part_count", lambda width: min(2, width))
        with caplog.at_level(logging.DEBUG, logger="oprisk_dynamics.ensemble"):
            run_ensemble(small_parameters, None, 20, 9, master_seed=3, batch_size=5)
        assert [r.getMessage() for r in caplog.records] == [
            "ensemble batch 0..5 of 9: 2 process(es) of widths [2, 3]",
            "ensemble batch 5..9 of 9: 2 process(es) of widths [2, 2]",
        ]


def two_candidate_estimates(theta_hat=(-1.0, -0.8), **base):
    # each candidate inverts a zero-loss ratio inside (0, 1): theta + c J < 0
    return hand_estimates(
        theta_hat, [1.0, 2.0], [[0, 3], [0, 0]], {(0, 1, 1): (0.3, 50), (0, 1, 2): (0.4, 20)},
        **base,
    )


class TestEstimateSetSources:
    def test_parameters_from_estimates_mean_collapse(self):
        est = two_candidate_estimates()
        p = parameters_from_estimates(est, collapse_precision(est))
        assert np.array_equal(p.theta, est.theta_hat)
        assert np.array_equal(p.lam, est.lam)
        assert np.array_equal(p.horizons, est.horizons)
        assert np.array_equal(p.couplings, collapse_precision(est))
        assert 0.3 < p.couplings[0, 1] < 0.4

    def test_degenerate_theta_blocks_simulation(self):
        # process 2's base events are all lossless: a zero-loss ratio of 1
        est = two_candidate_estimates([-1.0, 0.0], base_zero=[50, 100])
        assert est.degenerate_theta == [(1, "zero-ratio-1")]
        with pytest.raises(errors.EstimationDegenerate) as exc:
            parameters_from_estimates(est, collapse_precision(est))
        assert exc.value.indices == [1]
        with pytest.raises(errors.EstimationDegenerate):
            run_ensemble(est, None, 10, 2, master_seed=0)

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_sample_per_run_draws_one_matrix_per_trajectory(self, batch_size):
        est = two_candidate_estimates()
        master = 42
        m_traj = 6
        result = run_ensemble(est, None, 120, m_traj, master_seed=master, batch_size=batch_size)

        drawn = collapse_estimates(est, m_traj, derive_seed(master, 0))
        paths = []
        for m in range(m_traj):
            couplings = drawn[m]
            p = ModelParameters(
                theta=est.theta_hat, lam=est.lam,
                couplings=couplings, horizons=est.horizons,
            )
            seed = derive_seed(master, 1 + m)
            traj = simulate(p, None, 120, NoiseSpec(rates=p.lam, seed=seed))
            paths.append(traj.cumulative)
        stack = np.stack(paths)
        assert np.array_equal(result.terminal_samples, stack[:, -1, :])
        np.testing.assert_allclose(result.mean_z, stack.mean(axis=0), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 7])
    def test_coupling_graph_may_differ_between_batches(self, batch_size):
        # pair (0, 1) draws 0.0 or 0.3, so some batches have the edge 0 <- 1
        # and others evolve process 0 with no inputs; process 1 is
        # self-coupled, so it always runs in the step loop
        est = hand_estimates(
            [-0.7, -0.6], [1.5, 2.0], [[0, 3], [0, 2]],
            {(0, 1, 1): (0.0, 40), (0, 1, 2): (0.3, 20), (1, 1, 1): (0.2, 30)},
        )
        master, m_traj = 17, 7
        kwargs = dict(master_seed=master)
        baseline = run_ensemble(est, None, 150, m_traj, batch_size=7, **kwargs)
        result = run_ensemble(est, None, 150, m_traj, batch_size=batch_size, **kwargs)
        assert np.array_equal(result.mean_z, baseline.mean_z)
        assert np.array_equal(result.std_z, baseline.std_z)
        assert np.array_equal(result.terminal_samples, baseline.terminal_samples)
        cut = [run_ensemble(est, None, 60, m_traj, batch_size=b, **kwargs)
               for b in (7, batch_size)]
        assert np.array_equal(cut[1].terminal_samples, cut[0].terminal_samples)

        stack = collapse_estimates(est, m_traj, derive_seed(master, 0))
        drawn = []
        for m in range(m_traj):
            couplings = stack[m]
            drawn.append(couplings[0, 1])
            p = ModelParameters(
                theta=est.theta_hat, lam=est.lam,
                couplings=couplings, horizons=est.horizons,
            )
            traj = simulate(p, None, 150, NoiseSpec(rates=p.lam, seed=derive_seed(master, 1 + m)))
            assert np.array_equal(result.terminal_samples[m], traj.cumulative[-1])
        assert 0.0 in drawn and 0.3 in drawn


def two_member_cycle_parameters() -> ModelParameters:
    """Processes 1 and 2 drive each other over windows of 3 and 2 steps, and 1
    drives 3: a cycle of two members, then a process on no cycle. The
    reference model's only cycle is one self-coupled process."""
    couplings = np.zeros((3, 3))
    horizons = np.zeros((3, 3), dtype=int)
    for i, j, value, h in [(0, 1, 0.3, 3), (1, 0, 0.25, 2), (2, 0, 0.2, 2)]:
        couplings[i, j], horizons[i, j] = value, h
    return ModelParameters(theta=np.array([-1.0, -1.2, -0.9]), lam=np.array([3.0, 2.5, 3.5]),
                           couplings=couplings, horizons=horizons)


@pytest.fixture(scope="module")
def exact_reference_law():
    return exact_law(build_reference_parameters(), 2000)


@pytest.fixture(scope="module")
def exact_cycle_law():
    return exact_law(two_member_cycle_parameters(), 2000)


def mean_z_scores(p, exact_mean_z, seed):
    m = 4000
    result = run_ensemble(p, None, 2000, m, seed)
    return (result.mean_z[-1] - exact_mean_z) / (result.std_z[-1] / np.sqrt(m))


class TestExactLaw:
    """The engine's law against the exact means of the loss-window Markov
    chain, which reads the equation of motion and nothing of the engine: an
    engine whose windows are one step too long, or too short, fails. Every
    step loop gives the same bits at any batch width, so one width covers
    them all; E z is read from 4000-wide ensembles, the loss counts from
    batch-1 simulate."""

    def test_oracle_on_the_reference_model(self, exact_reference_law):
        mean_z, losses, counts = exact_reference_law
        np.testing.assert_allclose(mean_z, [5.015, 33.381, 4.581, 15.741, 14.466], atol=5e-4)
        np.testing.assert_allclose(losses, [23.096, 100.000, 21.096, 58.067, 53.363], atol=5e-4)
        np.testing.assert_allclose(counts["base_total"],
                                   [1543.693, 1995.000, 1894.169, 1465.672, 1787.400], atol=5e-4)
        np.testing.assert_allclose(counts["discarded"], [0, 0, 0, 22.810, 5.684], atol=5e-4)

    def test_oracle_on_a_two_member_cycle(self, exact_cycle_law):
        p = two_member_cycle_parameters()
        live = (p.horizons > 0) & (p.couplings != 0.0)
        assert _component_order(live) == [([0, 1], True), ([2], False)]
        mean_z, losses, counts = exact_cycle_law
        np.testing.assert_allclose(mean_z, [41.939, 44.321, 27.728], atol=5e-4)
        np.testing.assert_allclose(losses, [125.817, 110.801, 97.047], atol=5e-4)
        np.testing.assert_allclose(counts["base_total"], [1684.015, 1755.240, 1755.240],
                                   atol=5e-4)
        np.testing.assert_allclose(counts["base_zero"], [1600.172, 1667.852, 1680.025], atol=5e-4)
        # (i, j, c), 1-based, as the estimator reports its classes
        classes = {(1, 2, 1): 294.446, (1, 2, 2): 18.144, (2, 1, 1): 232.226,
                   (2, 1, 2): 9.533, (3, 1, 1): 232.226, (3, 1, 2): 9.533}
        for (i, j, c), total in classes.items():
            assert counts["class_total"][i - 1, j - 1, c - 1] == pytest.approx(total, abs=5e-4)

    def test_oracle_without_couplings(self):
        # every step is the same: e^{lam theta} / lam per step, and a loss
        # with probability min(1, e^{lam theta})
        p = ModelParameters(theta=np.array([-1.0, 0.5]), lam=np.array([2.0, 3.0]),
                            couplings=np.zeros((2, 2)), horizons=np.zeros((2, 2), dtype=int))
        mean_z, losses, _ = exact_law(p, 7)
        np.testing.assert_allclose(mean_z, 7 * np.array([np.exp(-2.0) / 2.0, 0.5 + 1.0 / 3.0]))
        np.testing.assert_allclose(losses, 7 * np.array([np.exp(-2.0), 1.0]))

    def test_oracle_refuses_a_chain_over_2_16_states(self):
        p = ModelParameters(theta=-np.ones(2), lam=np.ones(2),
                            couplings=np.array([[0.0, 0.1], [0.1, 0.0]]),
                            horizons=np.array([[0, 9], [8, 0]]))
        with pytest.raises(ValueError, match="2\\*\\*17 states"):
            exact_law(p, 1)

    # seeds fixed before any run of the engine against the oracle
    @pytest.mark.parametrize("seed", [31, 32])
    def test_mean_z_within_4_standard_errors(self, reference_parameters, exact_reference_law,
                                             seed):
        z_scores = mean_z_scores(reference_parameters, exact_reference_law[0], seed)
        assert np.all(np.abs(z_scores) < 4.0), z_scores

    @pytest.mark.parametrize("seed", [41, 42])
    def test_two_member_cycle_mean_z_within_4_standard_errors(self, exact_cycle_law, seed):
        z_scores = mean_z_scores(two_member_cycle_parameters(), exact_cycle_law[0], seed)
        assert np.all(np.abs(z_scores) < 4.0), z_scores

    # seeds fixed before any run of classify_events against the oracle
    @pytest.mark.parametrize(("model", "first_seed"), [("reference", 4000), ("cycle", 3000)])
    def test_count_classes_within_4_standard_errors(self, request, model, first_seed):
        # classify_events on batch-1 databases against the classes the chain
        # expects: an estimator whose windows are a step too long, or too
        # short, fails
        p = {"reference": build_reference_parameters,
             "cycle": two_member_cycle_parameters}[model]()
        exact = request.getfixturevalue(f"exact_{model}_law")[2]
        runs = 400
        seen = {name: [] for name in exact}
        for s in range(first_seed, first_seed + runs):
            losses = simulate(p, None, 2000, NoiseSpec(rates=p.lam, seed=s)).losses
            counts = classify_events(LossEvents.of(losses), p.horizons)
            for name, values in seen.items():
                values.append(getattr(counts, name))
        for name, expected in exact.items():
            values = np.array(seen[name])
            mean = values.mean(axis=0)
            se = values.std(axis=0, ddof=1) / np.sqrt(runs)
            spread = se > 0.0
            z_scores = (mean[spread] - expected[spread]) / se[spread]
            assert np.all(np.abs(z_scores) < 4.0), (name, z_scores)
            # a cell that every database fills alike, or that none fills
            np.testing.assert_allclose(mean[~spread], expected[~spread], atol=1e-3,
                                       err_msg=name)

    @pytest.mark.parametrize(("model", "first_seed"), [("reference", 2000), ("cycle", 1000)])
    def test_loss_counts_within_4_standard_errors(self, request, model, first_seed):
        p = {"reference": build_reference_parameters,
             "cycle": two_member_cycle_parameters}[model]()
        exact = request.getfixturevalue(f"exact_{model}_law")[1]
        runs = 400
        counts = np.array([
            np.count_nonzero(simulate(p, None, 2000, NoiseSpec(rates=p.lam, seed=s)).losses.losses,
                             axis=0)
            for s in range(first_seed, first_seed + runs)
        ])
        z_scores = (counts.mean(axis=0) - exact) / (counts.std(axis=0, ddof=1) / np.sqrt(runs))
        assert np.all(np.abs(z_scores) < 4.0), z_scores
