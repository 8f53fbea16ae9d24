"""Estimator tests.

Three oracles anchor this module: a brute-force event classifier that
recounts every trigger window naively, a dense classifier that counts every
event of a (T, N) matrix at once (the counting the estimator did before it
read loss events), and the closed-form inversion identity (plugging
estimates back must reproduce the observed zero-ratios to machine
precision).
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oprisk_dynamics import errors
from oprisk_dynamics.errors import DegeneracyWarning
from oprisk_dynamics.estimate import (
    EstimateSet,
    EventClassCounts,
    LossEvents,
    classify_events,
    collapse_estimates,
    collapse_precision,
    estimate_from_counts,
    estimate_from_database,
    lambda_from_p,
    lambda_from_quantile,
)
from oprisk_dynamics.model import LossMatrix, ModelParameters, NoiseSpec
from oprisk_dynamics.simulate import simulate

from conftest import brute_force_classify, build_reference_parameters, hand_counts, hand_estimates


def dense_classify(losses: np.ndarray, horizons: np.ndarray):
    """Every event of a dense (T, N) matrix classified at once: per process,
    a (live pairs, T - W) slab of window counts from prefix counts."""
    n_steps, n = losses.shape
    w = int(horizons.max()) if horizons.size else 0
    if n_steps < w + 1:
        raise errors.DatabaseTooShort(n_steps, w + 1)
    positive = np.ascontiguousarray((losses > 0.0).T)
    csum = np.zeros((n, n_steps + 1), dtype=np.int64)
    np.cumsum(positive, axis=1, out=csum[:, 1:])
    zero_loss = ~positive[:, w:]

    rows = n_steps - w
    base_total = np.full(n, rows, dtype=np.int64)
    base_zero = np.count_nonzero(zero_loss, axis=1).astype(np.int64)
    discarded = np.zeros(n, dtype=np.int64)
    class_total = np.zeros((n, n, w), dtype=np.int64)
    class_zero = np.zeros((n, n, w), dtype=np.int64)
    for i in range(n):
        live = np.flatnonzero(horizons[i])
        if live.size == 0:
            continue
        counts = np.empty((live.size, rows), dtype=np.int64)
        for k, j in enumerate(live.tolist()):
            h = int(horizons[i, j])
            np.subtract(csum[j, w:n_steps], csum[j, w - h : n_steps - h], out=counts[k])
        active = counts > 0
        n_active = active.sum(axis=0)
        base = n_active == 0
        base_total[i] = np.count_nonzero(base)
        base_zero[i] = np.count_nonzero(base & zero_loss[i])
        discarded[i] = np.count_nonzero(n_active >= 2)
        # class code k * w + c for one active influencer live[k] at count c,
        # 0 otherwise; bin 2 * code + 1 counts zero losses, 2 * code the others
        code = (counts + active * (w * np.arange(live.size))[:, None]).sum(axis=0)
        code *= n_active == 1
        code <<= 1
        code += zero_loss[i]
        bins = np.bincount(code, minlength=2 * (live.size * w + 1))[2:]
        bins = bins.reshape(live.size, w, 2)
        class_total[i, live] = bins.sum(axis=2)
        class_zero[i, live] = bins[:, :, 1]
    return base_total, base_zero, class_total, class_zero, discarded


def counters(counts: EventClassCounts):
    return (counts.base_total, counts.base_zero, counts.class_total, counts.class_zero,
            counts.discarded)


def random_database(rng, n=3, max_steps=200):
    n_steps = int(rng.integers(8, max_steps))
    horizons = rng.integers(0, 5, size=(n, n))
    density = rng.uniform(0.05, 0.6)
    losses = np.where(rng.random((n_steps, n)) < density, rng.uniform(0.1, 3.0, (n_steps, n)), 0.0)
    return losses, horizons


class TestClassifyEvents:
    def test_hand_enumerated_single_process(self):
        # losses (0, 5, 0, 0) with a one-step self horizon:
        # t=1 base with loss, t=2 class c=1 with zero loss, t=3 base with zero loss
        counts = classify_events(
            LossEvents.of(LossMatrix(np.array([[0.0], [5.0], [0.0], [0.0]]))), np.array([[1]])
        )
        assert counts.base_total[0] == 2
        assert counts.base_zero[0] == 1
        assert counts.class_total[0, 0, 0] == 1
        assert counts.class_zero[0, 0, 0] == 1
        assert counts.discarded[0] == 0

    def test_all_zero_database(self):
        horizons = np.array([[0, 3], [0, 2]])
        counts = classify_events(LossEvents.of(np.zeros((10, 2))), horizons)
        assert np.array_equal(counts.base_total, [7, 7])  # T - W events per process
        assert np.array_equal(counts.base_zero, [7, 7])
        assert not counts.class_total.any()
        assert not counts.discarded.any()

    @pytest.mark.parametrize("case_seed", range(10))
    def test_matches_brute_force_recount(self, case_seed):
        rng = np.random.default_rng(4000 + case_seed)
        losses, horizons = random_database(rng)
        # also W = 0, and process 1 with no live pair
        dead_row = horizons.copy()
        dead_row[0] = 0
        for h in (horizons, np.zeros_like(horizons), dead_row):
            counts = classify_events(LossEvents.of(losses), h)
            bt, bz, ct, cz, disc = brute_force_classify(losses, h)
            assert np.array_equal(counts.base_total, bt)
            assert np.array_equal(counts.base_zero, bz)
            assert np.array_equal(counts.class_total, ct)
            assert np.array_equal(counts.class_zero, cz)
            assert np.array_equal(counts.discarded, disc)
            assert counts.class_total.shape == ct.shape
            for field in (counts.base_total, counts.class_total, counts.discarded):
                assert field.dtype == np.int64

    @pytest.mark.parametrize("case_seed", range(4))
    def test_event_partition_is_complete(self, case_seed):
        rng = np.random.default_rng(4400 + case_seed)
        losses, horizons = random_database(rng)
        counts = classify_events(LossEvents.of(losses), horizons)
        per_process = (
            counts.base_total
            + counts.class_total.sum(axis=(1, 2))
            + counts.discarded
        )
        expected = losses.shape[0] - int(horizons.max())
        assert (per_process == expected).all()

    def test_horizons_of_another_shape_rejected(self):
        with pytest.raises(errors.DimensionMismatch, match="horizons"):
            classify_events(LossEvents.of(np.zeros((6, 2))), np.array([[1]]))

    @pytest.mark.parametrize("bad", [-1, 1.5, np.nan])
    def test_horizons_follow_the_model_rule(self, bad):
        horizons = np.array([[0, bad], [0, 0]])
        with pytest.raises(errors.NegativeHorizon) as from_model:
            ModelParameters(theta=-np.ones(2), lam=np.ones(2), couplings=np.zeros((2, 2)),
                            horizons=horizons)
        with pytest.raises(errors.NegativeHorizon) as from_events:
            classify_events(LossEvents.of(np.ones((4, 2))), horizons)
        assert (from_events.value.row, from_events.value.col) == (0, 1)
        assert str(from_events.value) == str(from_model.value)

    def test_database_shorter_than_window_rejected(self):
        with pytest.raises(errors.DatabaseTooShort):
            classify_events(LossEvents.of(np.zeros((5, 1))), np.array([[5]]))
        # exactly window + 1 steps is enough
        counts = classify_events(LossEvents.of(np.zeros((6, 1))), np.array([[5]]))
        assert counts.base_total[0] == 1


class TestLossEvents:
    @pytest.mark.parametrize("n_steps", [11, 20, -1, -3])
    def test_head_rejects_steps_the_database_lacks(self, n_steps):
        # head(20) of 10 steps would classify 10 lossless steps that do not exist
        events = LossEvents((np.array([1, 4, 9], dtype=np.int64),), 10)
        with pytest.raises(ValueError, match="head takes 0 to 10 steps"):
            events.head(n_steps)

    @pytest.mark.parametrize("steps", [
        [3, 1, 5],  # unsorted
        [1, 1, 5],  # repeated
        [-1, 2],  # before the first step
        [2, 10],  # past the last step
    ])
    def test_steps_out_of_order_or_range_rejected(self, steps):
        with pytest.raises(ValueError, match=r"increase strictly within \[0, 10\)"):
            LossEvents((np.array([0], dtype=np.int64), np.array(steps, dtype=np.int64)), 10)

    @pytest.mark.parametrize("steps", [
        np.array([1.0, 2.0]),
        np.array([1, 2], dtype=np.int32),
        np.array([[1, 2]], dtype=np.int64),
        [1, 2],
    ])
    def test_steps_must_be_int64_arrays(self, steps):
        with pytest.raises(ValueError, match="1-D int64 array"):
            LossEvents((steps,), 10)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_of_rejects_what_is_no_loss_matrix(self, bad):
        losses = np.zeros((5, 2))
        losses[3, 1] = bad
        with pytest.raises(ValueError, match=r"at \(t, process\) = \(3, 1\)"):
            LossEvents.of(losses)

    def test_of_reads_negative_zero_as_no_loss(self):
        events = LossEvents.of(np.array([[-0.0, 2.0], [0.0, -0.0]]))
        assert [s.tolist() for s in events.steps] == [[], [0]]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="n_steps must be >= 0"):
            LossEvents((np.array([], dtype=np.int64),), -3)

    def test_steps_are_read_only_copies(self):
        # a caller that reuses its arrays after the checks cannot reorder
        # the events behind them, which would miscount every class
        s0, s1 = np.array([1, 5, 9], dtype=np.int64), np.array([2, 3, 8], dtype=np.int64)
        events = LossEvents((s0, s1), 12)
        s0[:] = [9, 5, 1]
        assert not any(s.flags.writeable for s in events.steps)
        with pytest.raises(ValueError, match="read-only"):
            events.steps[1][0] = 0
        horizons = np.zeros((2, 2), dtype=np.int64)
        horizons[0, 1] = 2
        counts = classify_events(events, horizons)
        fresh = classify_events(LossEvents((np.array([1, 5, 9], dtype=np.int64), s1), 12), horizons)
        for name in ("base_total", "base_zero", "class_total", "class_zero", "discarded"):
            assert np.array_equal(getattr(counts, name), getattr(fresh, name)), name

    def test_events_of_a_database_are_read_only(self):
        losses = np.array([[0.0, 1.5], [2.0, 0.0], [0.0, 0.0], [0.5, 3.0]])
        events = LossEvents.of(LossMatrix(losses))
        assert [s.tolist() for s in events.steps] == [[1, 3], [0, 3]]
        assert not any(s.flags.writeable for s in events.steps)

    @pytest.mark.parametrize(("n_steps", "fraction", "kept"), [
        (10, 1.0, 10),
        (10, 0.7, 7),  # the float cut: an exact floor of 0.7 * 10 would keep 6
        (10, 0.25, 2),
        # past 2**53 the float product drops steps, but 1.0 keeps all T
        (2**53 + 1, 1.0, 2**53 + 1),
    ])
    def test_head_fraction(self, n_steps, fraction, kept):
        events = LossEvents((np.array([0, 6, 7, n_steps - 1], dtype=np.int64),), n_steps)
        head = events.head_fraction(fraction)
        assert head.n_steps == kept
        assert head.steps[0].tolist() == [t for t in (0, 6, 7, n_steps - 1) if t < kept]


class TestEventsMatchDenseOracle:
    @given(
        n=st.integers(min_value=1, max_value=4),
        n_steps=st.integers(min_value=1, max_value=300),
        density=st.floats(min_value=0.02, max_value=0.9),
        horizon_rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=6), min_size=4, max_size=4),
            min_size=4, max_size=4,
        ),
        dead_rows=st.lists(st.booleans(), min_size=4, max_size=4),
        fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_events_classifier_equals_dense_oracle(
        self, n, n_steps, density, horizon_rows, dead_rows, fraction, seed
    ):
        rng = np.random.default_rng(seed)
        losses = np.where(rng.random((n_steps, n)) < density,
                          rng.uniform(0.1, 3.0, (n_steps, n)), 0.0)
        horizons = np.array(horizon_rows)[:n, :n]
        horizons[np.array(dead_rows[:n])] = 0  # rows with no live pair
        cut = int(fraction * n_steps)
        events = LossEvents.of(losses).head(cut)
        head = LossEvents.of(losses[:cut])
        assert events.n_steps == head.n_steps == cut
        for got, want in zip(events.steps, head.steps):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
        try:
            want = dense_classify(losses[:cut], horizons)
        except errors.DatabaseTooShort as exc:
            with pytest.raises(errors.DatabaseTooShort, match=re.escape(str(exc))):
                classify_events(events, horizons)
            return
        got = classify_events(events, horizons)
        assert (got.n_steps, got.window) == (cut, int(horizons.max()))
        for field, expected in zip(counters(got), want):
            assert field.dtype == np.int64
            assert field.shape == expected.shape
            assert np.array_equal(field, expected)

    def test_reference_database_at_every_sweep_fraction(self, reference_parameters):
        p = reference_parameters
        traj = simulate(p, None, 20_000, NoiseSpec(rates=p.lam, seed=1))
        events = LossEvents.of(traj.losses)
        for fraction in (1.0, 0.75, 0.5, 0.25):
            cut = int(fraction * 20_000)
            got = counters(classify_events(events.head(cut), p.horizons))
            want = dense_classify(traj.losses.losses[:cut], p.horizons)
            assert all(map(np.array_equal, got, want))

    def test_counts_exact_beyond_float64_integers(self):
        # two losses 2**60 steps apart: segment lengths no float64 holds exactly
        n_steps = 2**60 + 7
        events = LossEvents((np.array([0, 2**60], dtype=np.int64),), n_steps)
        counts = classify_events(events, np.array([[3]]))
        # C = 1 at t = 3 (the first counted step) and t = 2**60 + 1 .. 2**60 + 3
        assert counts.class_total[0, 0].tolist() == [4, 0, 0]
        assert counts.class_zero[0, 0].tolist() == [4, 0, 0]
        assert int(counts.base_total[0]) == n_steps - 3 - 4
        assert int(counts.base_zero[0]) == n_steps - 3 - 4 - 1  # t = 2**60 loses


class TestEstimateTypes:
    @pytest.mark.parametrize("field", ["base_zero", "class_zero"])
    def test_counts_reject_more_zeros_than_events(self, field):
        fields = dict(vars(hand_counts([[2]], {(0, 0, 2): (5, 0)})))
        zero = fields[field].copy()
        zero.flat[-1] += 101
        fields[field] = zero
        with pytest.raises(ValueError, match=f"{field} must lie in"):
            EventClassCounts(**fields)

    def test_window_is_the_largest_horizon(self):
        assert hand_counts([[3]]).window == 3
        assert hand_counts(np.array([[0, 4], [2, 0]])).window == 4
        assert hand_counts(np.zeros((0, 0))).window == 0

    def test_theta_available_is_false_exactly_at_degenerate_thresholds(self):
        est = EstimateSet(
            theta_hat=np.array([-1.0, 0.0, -2.0]), j_hat=np.zeros((3, 3, 0)), lam=np.ones(3),
            counts=hand_counts(np.zeros((3, 3)), base_zero=[50, 0, 50]),
        )
        assert est.degenerate_theta == [(1, "zero-ratio-0")]
        assert est.theta_available.tolist() == [True, False, True]
        assert est.to_json_dict()["theta_available"] == [True, False, True]
        assert est.horizons is est.counts.horizons

    def test_an_available_positive_theta_rejected(self):
        fields = dict(theta_hat=np.array([-1.0, 0.5]), j_hat=np.zeros((2, 2, 0)), lam=np.ones(2))
        with pytest.raises(ValueError, match="available theta estimates must be <= 0"):
            EstimateSet(counts=hand_counts(np.zeros((2, 2))), **fields)
        EstimateSet(counts=hand_counts(np.zeros((2, 2)), base_total=[100, 0], base_zero=0),
                    **fields)

    def test_j_hat_is_shaped_like_the_class_counts(self):
        with pytest.raises(errors.DimensionMismatch, match=r"j_hat: expected shape \(2, 2, 3\)"):
            EstimateSet(theta_hat=-np.ones(2), j_hat=np.zeros((2, 2, 2)), lam=np.ones(2),
                        counts=hand_counts([[0, 3], [0, 0]]))

    @pytest.mark.parametrize(("field", "value", "name"), [
        ("theta_hat", -np.ones(1), "theta_hat"),
        ("theta_hat", -np.ones(3), "theta_hat"),
        ("lam", np.ones(4), "lambda"),
        ("lam", 3.0, "lambda"),
        # one value per process, in a shape that is no vector
        ("theta_hat", -np.ones((1, 2)), "theta_hat"),
        ("lam", np.ones((2, 1)), "lambda"),
    ], ids=["theta_hat-short", "theta_hat-long", "lam-long", "lam-scalar", "theta_hat-row",
            "lam-column"])
    def test_theta_hat_and_lambda_hold_one_value_per_process(self, field, value, name):
        fields = dict(theta_hat=-np.ones(2), j_hat=np.zeros((2, 2, 3)), lam=np.ones(2))
        fields[field] = value
        with pytest.raises(errors.DimensionMismatch, match=rf"{name}: expected shape \(2,\)"):
            EstimateSet(counts=hand_counts([[0, 3], [0, 0]]), **fields)

    def test_records_are_read_only(self):
        counts = hand_counts([[0, 2], [0, 0]], {(0, 1, 1): (10, 5)})
        est = estimate_from_counts(counts, np.ones(2))
        for record, fields in (
            (counts, ["base_total", "base_zero", "class_total", "class_zero", "discarded",
                      "horizons"]),
            (est, ["theta_hat", "j_hat", "lam"]),
        ):
            for name in fields:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(record, name).flat[0] = 1
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name).copy())
        with pytest.raises(ValueError, match="read-only"):
            est.theta_available[0] = False
        for name in ("counts", "degenerate_theta", "skipped_classes", "theta_available",
                     "candidates"):
            with pytest.raises(AttributeError):
                setattr(est, name, [])
        with pytest.raises(AttributeError):
            counts.n_steps = 0

    def test_stored_arrays_are_copies(self):
        theta_hat, j_hat, lam = -np.ones(2), np.zeros((2, 2, 2)), np.ones(2)
        est = EstimateSet(theta_hat=theta_hat, j_hat=j_hat, lam=lam,
                          counts=hand_counts([[0, 2], [0, 0]]))
        assert theta_hat.flags.writeable and j_hat.flags.writeable and lam.flags.writeable
        theta_hat[0] = 5.0
        assert est.theta_hat[0] == -1.0


class TestEstimateTheta:
    @pytest.mark.parametrize("lam", [[3.0, 2.5, 7.0, 9.0], [3.0], 3.0, [[3.0], [2.5]]],
                             ids=["long", "short", "scalar", "column"])
    def test_one_rate_per_process_or_no_estimate(self, lam):
        # process 2's base class is degenerate, so a warning would come next
        counts = hand_counts(np.zeros((2, 2)), base_zero=[50, 0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(errors.DimensionMismatch, match=r"lambda: expected shape \(2,\)"):
                estimate_from_counts(counts, lam)
        assert seen == []

    def test_closed_form_half_ratio(self):
        est = estimate_from_counts(hand_counts([[1]]), np.array([1.0]))
        assert est.theta_hat[0] == pytest.approx(np.log(0.5), abs=1e-12)
        assert est.theta_available[0]

    def test_zero_ratio_reports_zero_with_warning(self):
        counts = hand_counts([[1]], base_zero=0)
        with pytest.warns(DegeneracyWarning):
            est = estimate_from_counts(counts, np.array([2.0]))
        assert est.theta_hat[0] == 0.0
        assert not est.theta_available[0]

    def test_ratio_one_unavailable(self):
        counts = hand_counts([[1]], base_zero=100)
        with pytest.warns(DegeneracyWarning):
            est = estimate_from_counts(counts, np.array([1.0]))
        assert est.theta_hat[0] == 0.0
        assert not est.theta_available[0]

    def test_no_base_events_unavailable(self):
        counts = hand_counts([[1]], base_total=0, base_zero=0)
        with pytest.warns(DegeneracyWarning):
            est = estimate_from_counts(counts, np.array([1.0]))
        assert not est.theta_available[0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rate_must_be_finite_and_positive(self, bad):
        with pytest.raises(errors.NonPositiveLambda) as exc:
            estimate_from_counts(hand_counts([[1]]), np.array([bad]))
        assert exc.value.index == 0

    @given(
        total=st.integers(min_value=2, max_value=10**6),
        zero_frac=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        lam=st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_inversion_identity(self, total, zero_frac, lam):
        zero = min(max(int(total * zero_frac), 1), total - 1)
        counts = hand_counts([[1]], base_total=total, base_zero=zero)
        est = estimate_from_counts(counts, np.array([lam]))
        assert est.theta_available[0]
        assert est.theta_hat[0] <= 0
        assert abs((1.0 - np.exp(lam * est.theta_hat[0])) - zero / total) < 1e-12


# a base class whose zero-loss ratio, 1 - e^-1 to 17 digits, inverts to
# theta_hat = -1.0 at lam = 1
THETA_MINUS_ONE = {"base_total": 10**17, "base_zero": round(-math.expm1(-1.0) * 10**17)}


def counts_with_class(c, class_total, class_zero, **base):
    """One process with horizon 3 and one non-empty class, (1, 1, c)."""
    return hand_counts([[3]], {(0, 0, c): (class_total, class_zero)}, **base)


class TestEstimateCouplings:
    def test_closed_form_half_ratio_c1(self):
        counts = counts_with_class(1, 100, 50, **THETA_MINUS_ONE)
        est = estimate_from_counts(counts, np.array([1.0]))
        assert est.theta_hat[0] == -1.0
        estimate = est.j_hat[0, 0, 0]
        assert est.candidates == {(0, 0): [(1, estimate, 100)]}
        assert estimate == pytest.approx(1.0 + np.log(0.5), abs=1e-12)
        assert estimate == pytest.approx(0.306853, abs=5e-7)
        assert est.j_hat[0, 0, 1:].tolist() == [0.0, 0.0]

    def test_count_class_two_halves_the_estimate(self):
        counts = counts_with_class(2, 100, 50, **THETA_MINUS_ONE)
        est = estimate_from_counts(counts, np.array([1.0]))
        assert est.candidates == {(0, 0): [(2, est.j_hat[0, 0, 1], 100)]}
        assert est.j_hat[0, 0, 1] == pytest.approx((1.0 + np.log(0.5)) / 2, abs=1e-12)

    def test_degenerate_class_skipped_with_warning(self):
        counts = counts_with_class(1, 10, 0)
        with pytest.warns(DegeneracyWarning, match=r"\(1, 1, 1\)"):
            est = estimate_from_counts(counts, np.array([1.0]))
        assert est.candidates == {}
        assert not est.j_hat.any()
        assert est.skipped_classes == [(0, 0, 1, "zero-ratio-0")]

    def test_missing_theta_raised_for_usable_class(self):
        # the base class's ratio of 1 leaves theta unavailable
        counts = counts_with_class(1, 100, 50, base_zero=(100,))
        with pytest.warns(DegeneracyWarning, match="theta unavailable"):
            with pytest.raises(errors.MissingTheta):
                estimate_from_counts(counts, np.array([1.0]))

    def test_missing_theta_not_raised_when_only_degenerate_classes(self):
        counts = counts_with_class(1, 10, 10, base_zero=(100,))
        with pytest.warns(DegeneracyWarning):
            est = estimate_from_counts(counts, np.array([1.0]))
        assert not est.theta_available[0]
        assert est.candidates == {}

    @given(
        total=st.integers(min_value=2, max_value=10**5),
        zero_frac=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        lam=st.floats(min_value=0.05, max_value=20.0),
        base_frac=st.floats(min_value=1e-6, max_value=1 - 1e-6),
        c=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_inversion_identity(self, total, zero_frac, lam, base_frac, c):
        zero = min(max(int(total * zero_frac), 1), total - 1)
        base_zero = min(max(int(10**6 * base_frac), 1), 10**6 - 1)
        counts = counts_with_class(c, total, zero, base_total=(10**6,), base_zero=(base_zero,))
        est = estimate_from_counts(counts, np.array([lam]))
        theta = est.theta_hat[0]
        assert {pair: [k for k, _, _ in found] for pair, found in est.candidates.items()} == {
            (0, 0): [c]
        }
        reproduced = 1.0 - np.exp(lam * (c * est.j_hat[0, 0, c - 1] + theta))
        assert abs(reproduced - zero / total) < 1e-12


class TestEstimateFromDatabase:
    def test_diagnostics_name_each_degenerate_ratio(self):
        # process 2 loses at even steps and process 1 right after each of
        # them: process 1's base events all end lossless (ratio 1) and its
        # class (1, 2, 1) events never do (ratio 0)
        losses = np.array([[0.0, 1.0], [1.0, 0.0]] * 3)
        horizons = np.array([[0, 1], [0, 0]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_from_database(LossEvents.of(losses), horizons, np.array([1.0, 1.0]))

        assert est.degenerate_theta == [(0, "zero-ratio-1")]
        assert est.skipped_classes == [(0, 1, 1, "zero-ratio-0")]
        assert list(est.theta_available) == [False, True]
        assert est.candidates == {}
        doc = est.to_json_dict()["diagnostics"]
        assert doc["degenerate_theta"] == [{"process": 1, "reason": "zero-ratio-1"}]
        assert doc["skipped_classes"] == [
            {"i": 1, "j": 2, "count_class": 1, "reason": "zero-ratio-0"}
        ]
        messages = [str(w.message) for w in caught if w.category is DegeneracyWarning]
        assert [m for m in messages if m.startswith("class")] == [
            "class (i, j, c) = (1, 2, 1): zero-loss ratio is 0, candidate skipped"
        ]
        assert [m for m in messages if m.startswith("process")] == [
            "process 1: base zero-loss ratio is 1, theta unavailable"
        ]

    @pytest.mark.parametrize("fraction, n_skipped", [(1.0, 6), (0.25, 4)])
    def test_candidates_and_diagnostics_follow_the_counts(
        self, reference_events, fraction, n_skipped
    ):
        p = build_reference_parameters()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneracyWarning)
            est = estimate_from_database(reference_events.head_fraction(fraction), p.horizons, p.lam)
        counts = est.counts
        candidates, skipped = {}, []
        for i, j, k in np.argwhere(counts.class_total > 0).tolist():
            total, zero = int(counts.class_total[i, j, k]), int(counts.class_zero[i, j, k])
            if 0 < zero < total:
                candidates.setdefault(f"{i + 1},{j + 1}", []).append(
                    {"count_class": k + 1, "estimate": float(est.j_hat[i, j, k]), "support": total}
                )
            else:
                reason = "zero-ratio-0" if zero == 0 else "zero-ratio-1"
                skipped.append({"i": i + 1, "j": j + 1, "count_class": k + 1, "reason": reason})
        doc = est.to_json_dict()
        assert list(doc["coupling_candidates"].items()) == list(candidates.items())
        assert doc["diagnostics"]["skipped_classes"] == skipped
        # every base class of this database is usable
        assert all(0 < zero < total for total, zero in zip(counts.base_total, counts.base_zero))
        assert doc["diagnostics"]["degenerate_theta"] == []
        assert len(skipped) == n_skipped
        # j_hat holds an estimate only where a class yields one
        usable = (counts.class_zero > 0) & (counts.class_zero < counts.class_total)
        assert not est.j_hat[~usable].any()


@pytest.fixture(scope="module")
def reference_events() -> LossEvents:
    """The events of a 100k-step reference-model database (seed 604), whose
    estimates skip degenerate classes at every fraction."""
    p = build_reference_parameters()
    return LossEvents.of(simulate(p, None, 100_000, NoiseSpec(rates=p.lam, seed=604)).losses)


class TestCollapse:
    def _estimates(self, mapping):
        # pair -> candidates of count classes 1, 2, ..., each of support 10
        return self._with_candidates(
            {(i, j, k + 1): (v, 10) for (i, j), values in mapping.items()
             for k, v in enumerate(values)}
        )

    def _with_candidates(self, candidates):
        # theta_hat = -1 and lam = 1 for both processes
        return hand_estimates([-1.0, -1.0], [1.0, 1.0], [[0, 3], [0, 3]], candidates)

    def test_singleton_under_both_strategies(self):
        est = self._estimates({(0, 1): [0.15]})
        assert collapse_precision(est)[0, 1] == 0.15
        stack = collapse_estimates(est, 4, seed=1)
        assert (stack[:, 0, 1] == 0.15).all()

    def test_precision_weights_match_hand_computation(self):
        est = self._with_candidates(
            {(0, 1, 1): (0.2, 100), (0, 1, 2): (0.3, 50)}
        )
        # weight (1 - r) n (lam c)^2 / r with 1 - r = exp(lam (theta + c J))
        keep_1 = math.exp(-1.0 + 1 * 0.2)
        keep_2 = math.exp(-1.0 + 2 * 0.3)
        w1 = keep_1 * 100 * 1**2 / (1.0 - keep_1)
        w2 = keep_2 * 50 * 2**2 / (1.0 - keep_2)
        expected = (w1 * 0.2 + w2 * 0.3) / (w1 + w2)
        collapsed = collapse_precision(est)
        assert collapsed[0, 1] == pytest.approx(expected, rel=1e-12)
        assert collapsed[1, 0] == 0.0  # no candidates -> absent interaction

    def test_precision_tiny_class_barely_moves_a_large_one(self):
        # the large class is c = 2, so the tiny one (c = 1) weighs (lam c)^2
        # less per event; a pair has one candidate per count class
        est = self._with_candidates({(0, 1, 1): (0.25, 3), (0, 1, 2): (0.10, 10000)})
        assert abs(collapse_precision(est)[0, 1] - 0.10) < 1e-4

    def test_precision_rejects_ratio_outside_unit_interval(self):
        # theta + c J = 0 (ratio 0) and > 0 (ratio negative)
        for c, value in ((2, 0.5), (2, 0.6)):
            est = self._with_candidates({(1, 0, 1): (0.1, 10), (1, 0, c): (value, 10)})
            with pytest.raises(ValueError, match=r"\(2, 1\)"):
                collapse_precision(est)

    def test_precision_stays_within_estimated_candidates(self):
        # a weak coupling keeps every count class c = 1..3 non-degenerate
        p = ModelParameters(
            theta=np.array([-1.0, -1.0]),
            lam=np.array([1.0, 2.0]),
            couplings=np.array([[0.0, 0.2], [0.0, 0.0]]),
            horizons=np.array([[0, 3], [0, 0]]),
        )
        traj = simulate(p, None, 20000, NoiseSpec(rates=p.lam, seed=5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degeneracy expected
            est = estimate_from_database(LossEvents.of(traj.losses), p.horizons, p.lam)
        assert list(est.candidates) == [(0, 1)]
        classes, values, _ = zip(*est.candidates[0, 1])
        assert classes == (1, 2, 3)
        collapsed = collapse_precision(est)
        assert min(values) <= collapsed[0, 1] <= max(values)
        assert np.count_nonzero(collapsed) == 1

    def test_sample_per_run_is_seeded_and_draws_from_candidates(self):
        est = self._estimates({(0, 1): [0.10, 0.12, 0.20]})
        first = collapse_estimates(est, 20, seed=7)
        assert np.array_equal(first, collapse_estimates(est, 20, seed=7))
        # trajectory m's matrix does not depend on how many follow it
        assert np.array_equal(first, collapse_estimates(est, 60, seed=7)[:20])
        seen = set(collapse_estimates(est, 60, seed=8)[:, 0, 1])
        assert seen == {0.10, 0.12, 0.20}

    def test_sample_per_run_draw_order(self):
        # one integers() call per pair, pairs in sorted order, matrix by matrix
        mapping = {(1, 0): [0.3, 0.2], (0, 1): [0.10, 0.12, 0.20]}
        stack = collapse_estimates(self._estimates(mapping), 25, seed=5)
        gen = np.random.Generator(np.random.PCG64(5))
        for matrix in stack:
            for pair, values in sorted(mapping.items()):
                assert matrix[pair] == values[gen.integers(len(values))]
            assert matrix[0, 0] == matrix[1, 1] == 0.0

    @pytest.mark.parametrize("case_seed", range(12))
    def test_sample_per_run_equals_a_draw_per_pair_loop(self, case_seed):
        rng = np.random.default_rng(9100 + case_seed)
        n = int(rng.integers(1, 5))
        pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.7]
        mapping = {
            pair: [float(v) for v in rng.uniform(-0.3, 0.3, int(rng.integers(1, 13)))]
            for pair in pairs
        }
        est = hand_estimates(
            -np.ones(n), np.ones(n), np.full((n, n), 12),
            {(i, j, k + 1): (v, 10) for (i, j), values in mapping.items()
             for k, v in enumerate(values)},
        )
        m, seed = int(rng.integers(1, 301)), int(rng.integers(2**63))
        stack = collapse_estimates(est, m, seed=seed)
        gen = np.random.Generator(np.random.PCG64(seed))
        expected = np.zeros((m, n, n))
        for matrix in expected:
            for (i, j), values in sorted(mapping.items()):
                matrix[i, j] = values[gen.integers(len(values))]
        assert stack.tobytes() == expected.tobytes()

    def test_no_candidates_draw_a_zero_stack(self):
        stack = collapse_estimates(self._estimates({}), 2, seed=3)
        assert stack.shape == (2, 2, 2)
        assert not stack.any()


class TestLambdaHelpers:
    def test_lambda_from_p_reference_values(self):
        assert lambda_from_p(0.01, -1.0) == pytest.approx(4.605170, abs=5e-7)
        assert lambda_from_p(0.05, -1.0) == pytest.approx(2.995732, abs=5e-7)
        assert lambda_from_p(np.exp(-1.0), -1.0) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_from_p_validation(self):
        for bad in (0.0, 1.0, -0.3, np.nan):
            with pytest.raises(errors.InvalidProbability):
                lambda_from_p(bad, -1.0)
        for bad_theta in (0.0, 0.5, np.nan):
            with pytest.raises(errors.NonNegativeTheta):
                lambda_from_p(0.5, bad_theta)

    def test_lambda_from_quantile_reference_values(self):
        assert lambda_from_quantile(np.log(2.0), 0.5) == pytest.approx(1.0, abs=1e-12)
        assert lambda_from_quantile(2.0 * np.log(2.0), 0.5) == pytest.approx(0.5, abs=1e-12)
        assert lambda_from_quantile(4.60517, 0.99) == pytest.approx(1.0, abs=1e-6)

    def test_lambda_from_quantile_validation(self):
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(errors.InvalidQuantile):
                lambda_from_quantile(bad, 0.5)
        for bad in (0.0, 1.0, -0.2, np.nan):
            with pytest.raises(errors.InvalidOrder):
                lambda_from_quantile(1.0, bad)

    @given(
        p=st.floats(min_value=1e-9, max_value=1 - 1e-9),
        theta=st.floats(min_value=-100.0, max_value=-1e-3),
    )
    @settings(max_examples=100, deadline=None)
    def test_lambda_from_p_round_trip(self, p, theta):
        lam = lambda_from_p(p, theta)
        assert lam > 0
        assert np.exp(lam * theta) == pytest.approx(p, rel=1e-9)


class TestRoundTrip:
    def test_noninteracting_recovery(self):
        p = ModelParameters(
            theta=np.array([-1.0, -0.5]),
            lam=np.array([1.0, 3.0]),
            couplings=np.zeros((2, 2)),
            horizons=np.zeros((2, 2), dtype=int),
        )
        traj = simulate(p, None, 60000, NoiseSpec(rates=p.lam, seed=314))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no degeneracy expected
            est = estimate_from_database(LossEvents.of(traj.losses), p.horizons, p.lam)
        assert est.theta_available.all()
        assert np.allclose(est.theta_hat, p.theta, rtol=0.06)
        assert est.candidates == {}
        assert not collapse_precision(est).any()

    def test_interacting_recovery_within_sampling_noise(self, small_parameters):
        traj = simulate(
            small_parameters, None, 80000, NoiseSpec(rates=small_parameters.lam, seed=11)
        )
        est = estimate_from_database(
            LossEvents.of(traj.losses), small_parameters.horizons, small_parameters.lam
        )
        assert np.allclose(est.theta_hat, small_parameters.theta, rtol=0.05)
        collapsed = collapse_precision(est)
        assert collapsed[0, 1] == pytest.approx(0.5, rel=0.25)
