"""Contract tests for the core parameter and history types."""

import dataclasses

import numpy as np
import pytest

from oprisk_dynamics import errors
from oprisk_dynamics.model import LossMatrix, ModelParameters, NoiseSpec


def make_params(**overrides):
    """Two-process parameter set with one active coupling, valid by default."""
    fields = dict(
        theta=[-1.0, -1.0],
        lam=[1.0, 2.0],
        couplings=[[0.0, 0.1], [0.0, 0.0]],
        horizons=[[0, 5], [0, 0]],
    )
    fields.update(overrides)
    return ModelParameters(**fields)


class TestModelParameters:
    def test_reference_shape_parameters_are_valid(self, reference_parameters):
        assert reference_parameters.n == 5
        assert np.array_equal(reference_parameters.theta, -np.ones(5))
        assert reference_parameters.horizons[0, 1] == 5
        assert reference_parameters.horizons[1, 0] == 0

    def test_fields_are_the_four_constant_sets(self):
        names = [f.name for f in dataclasses.fields(ModelParameters)]
        assert names == ["theta", "lam", "couplings", "horizons"]

    @pytest.mark.parametrize("theta", [[-1.0], [-1.0, -1.0, -1.0], np.full(7, -2.0)])
    def test_n_is_the_length_of_theta(self, theta):
        n = len(theta)
        p = ModelParameters(
            theta=theta, lam=np.ones(n), couplings=np.zeros((n, n)), horizons=np.zeros((n, n))
        )
        assert p.n == len(theta)
        assert type(p.n) is int

    def test_arrays_are_canonical(self):
        p = make_params(horizons=[[0.0, 5.0], [0.0, 0.0]])
        for field in ("theta", "lam", "couplings"):
            assert getattr(p, field).dtype == np.float64
        assert p.horizons.dtype == np.int64
        assert p.max_horizon == 5

    def test_arrays_are_read_only(self):
        p = make_params()
        for field in ("theta", "lam", "couplings", "horizons"):
            with pytest.raises(ValueError):
                getattr(p, field)[0] = 5

    def test_arrays_are_copies_of_the_callers(self):
        theta = np.array([-1.0, -1.0])
        lam = np.array([1.0, 2.0])
        couplings = np.array([[0.0, 0.1], [0.0, 0.0]])
        horizons = np.array([[0, 5], [0, 0]], dtype=np.int64)
        p = ModelParameters(theta=theta, lam=lam, couplings=couplings, horizons=horizons)
        for arr in (theta, lam, couplings, horizons):
            arr[...] = 9
        assert np.array_equal(p.theta, [-1.0, -1.0])
        assert np.array_equal(p.lam, [1.0, 2.0])
        assert np.array_equal(p.couplings, [[0.0, 0.1], [0.0, 0.0]])
        assert np.array_equal(p.horizons, [[0, 5], [0, 0]])

    def test_replace_checks_again(self):
        p = make_params()
        with pytest.raises(errors.NonFiniteParameter) as exc:
            dataclasses.replace(p, couplings=[[0.0, np.nan], [0.0, 0.0]])
        assert exc.value.index == (0, 1)
        q = dataclasses.replace(p, theta=[0.5, -1.0])
        assert q.theta[0] == 0.5 and not q.theta.flags.writeable

    @pytest.mark.parametrize("theta", [[], np.zeros((0,)), [[-1.0, -1.0]], -1.0])
    def test_empty_or_not_one_dimensional_theta_rejected(self, theta):
        with pytest.raises(errors.DimensionMismatch) as exc:
            make_params(theta=theta)
        assert exc.value.field == "theta"

    def test_zero_lambda_rejected_with_index(self):
        with pytest.raises(errors.NonPositiveLambda) as exc:
            make_params(lam=[0.0, 1.0])
        assert exc.value.index == 0

    def test_nan_lambda_rejected(self):
        with pytest.raises(errors.NonPositiveLambda):
            make_params(lam=[np.nan, 1.0])

    def test_negative_horizon_rejected(self):
        with pytest.raises(errors.NegativeHorizon) as exc:
            make_params(horizons=[[0, 5], [-1, 0]])
        assert (exc.value.row, exc.value.col) == (1, 0)

    def test_fractional_horizon_rejected(self):
        with pytest.raises(errors.NegativeHorizon):
            make_params(horizons=[[0.0, 2.5], [0.0, 0.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0**63, 1e300])
    def test_non_finite_or_beyond_int64_horizon_rejected(self, value):
        with pytest.raises(errors.NegativeHorizon) as exc:
            make_params(horizons=[[0.0, 5.0], [value, 0.0]])
        assert (exc.value.row, exc.value.col) == (1, 0)

    def test_coupling_with_zero_horizon_rejected(self):
        with pytest.raises(errors.ZeroHorizonWithCoupling) as exc:
            make_params(horizons=[[0, 0], [0, 0]])
        assert (exc.value.row, exc.value.col) == (0, 1)
        assert "[1][2]" in str(exc.value)

    def test_shape_mismatch_rejected(self):
        for field, value in (
            ("lambda", dict(lam=[1.0, 2.0, 3.0])),
            ("couplings", dict(couplings=[[0.0, 0.1]])),
            ("horizons", dict(horizons=[[0, 5]])),
        ):
            with pytest.raises(errors.DimensionMismatch) as exc:
                make_params(**value)
            assert exc.value.field == field
        with pytest.raises(errors.DimensionMismatch) as exc:
            make_params(theta=[-1.0, -1.0, -1.0])
        assert exc.value.field == "lambda"

    def test_checks_run_in_a_fixed_order(self):
        # a shape error comes before a non-finite entry, which comes before a
        # bad rate, a bad horizon and a starved coupling
        with pytest.raises(errors.DimensionMismatch):
            make_params(theta=[np.nan, -1.0], lam=[0.0], horizons=[[-1, 0], [0, 0]])
        with pytest.raises(errors.NonFiniteParameter):
            make_params(theta=[np.nan, -1.0], lam=[0.0, 1.0], horizons=[[-1, 0], [0, 0]])
        with pytest.raises(errors.NonPositiveLambda):
            make_params(lam=[0.0, 1.0], horizons=[[-1, 0], [0, 0]])
        with pytest.raises(errors.NegativeHorizon):
            make_params(horizons=[[-1, 0], [0, 0]])

    def test_non_finite_theta_rejected(self):
        with pytest.raises(errors.NonFiniteParameter):
            make_params(theta=[-1.0, np.inf])

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(errors.NonFiniteParameter):
            make_params(couplings=[[0.0, np.nan], [0.0, 0.0]])

    def test_positive_theta_allowed(self):
        p = make_params(theta=[0.5, -1.0])
        assert p.theta[0] == 0.5


class TestLossMatrix:
    def test_properties(self):
        m = LossMatrix(np.zeros((7, 3)))
        assert m.n_steps == 7
        assert m.n_processes == 3

    def test_negative_entry_rejected_with_coordinates(self):
        for value in (-0.5, np.nan, np.inf):
            bad = np.zeros((4, 2))
            bad[2, 1] = value
            with pytest.raises(ValueError, match=r"\(2, 1\)"):
                LossMatrix(bad)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            LossMatrix(np.zeros(5))

    def test_array_is_read_only(self):
        m = LossMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.losses[0, 0] = 3.0


class TestNoiseSpec:
    def test_generator_is_deterministic(self):
        a = NoiseSpec(rates=np.array([1.0]), seed=42).generator().random(5)
        b = NoiseSpec(rates=np.array([1.0]), seed=42).generator().random(5)
        assert np.array_equal(a, b)

    def test_rates_must_be_positive(self):
        with pytest.raises(errors.NonPositiveLambda):
            NoiseSpec(rates=np.array([1.0, -2.0]), seed=0)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            NoiseSpec(rates=np.array([1.0]), seed=-1)
        with pytest.raises(ValueError):
            NoiseSpec(rates=np.array([1.0]), seed=2**64)

    @pytest.mark.parametrize("seed", [-0.5, 1.7, 3.0, True, False, np.float64(2.0), "7"])
    def test_seed_must_be_an_integer(self, seed):
        # int() would truncate these to a valid seed
        with pytest.raises(ValueError, match="64-bit unsigned integer"):
            NoiseSpec(rates=np.array([1.0]), seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.int64(7), np.uint64(2**64 - 1)])
    def test_python_and_numpy_integer_seeds_accepted(self, seed):
        noise = NoiseSpec(rates=np.array([1.0]), seed=seed)
        assert type(noise.seed) is int and noise.seed == int(seed)
