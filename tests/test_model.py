"""Contract tests for the core parameter and history types."""

import numpy as np
import pytest

from oprisk_dynamics import errors
from oprisk_dynamics.model import (
    LossMatrix,
    ModelParameters,
    NoiseSpec,
    validate_parameters,
)


def make_params(**overrides):
    """Two-process parameter set with one active coupling, valid by default."""
    fields = dict(
        n=2,
        theta=[-1.0, -1.0],
        lam=[1.0, 2.0],
        couplings=[[0.0, 0.1], [0.0, 0.0]],
        horizons=[[0, 5], [0, 0]],
    )
    fields.update(overrides)
    return ModelParameters(**fields)


class TestValidateParameters:
    def test_reference_shape_parameters_are_valid(self, reference_parameters):
        validated = validate_parameters(reference_parameters)
        assert validated.n == 5
        assert np.array_equal(validated.theta, -np.ones(5))
        assert validated.horizons[0, 1] == 5
        assert validated.horizons[1, 0] == 0

    def test_idempotent_and_content_preserving(self):
        p = validate_parameters(make_params())
        q = validate_parameters(p)
        assert q.n == p.n
        for field in ("theta", "lam", "couplings", "horizons"):
            assert np.array_equal(getattr(q, field), getattr(p, field))

    def test_validated_arrays_are_read_only(self):
        p = validate_parameters(make_params())
        with pytest.raises(ValueError):
            p.theta[0] = 5.0

    def test_zero_lambda_rejected_with_index(self):
        with pytest.raises(errors.NonPositiveLambda) as exc:
            validate_parameters(make_params(lam=[0.0, 1.0]))
        assert exc.value.index == 0

    def test_nan_lambda_rejected(self):
        with pytest.raises(errors.NonPositiveLambda):
            validate_parameters(make_params(lam=[np.nan, 1.0]))

    def test_negative_horizon_rejected(self):
        with pytest.raises(errors.NegativeHorizon) as exc:
            validate_parameters(make_params(horizons=[[0, 5], [-1, 0]]))
        assert (exc.value.row, exc.value.col) == (1, 0)

    def test_fractional_horizon_rejected(self):
        with pytest.raises(errors.NegativeHorizon):
            validate_parameters(make_params(horizons=[[0.0, 2.5], [0.0, 0.0]]))

    def test_coupling_with_zero_horizon_rejected(self):
        with pytest.raises(errors.ZeroHorizonWithCoupling) as exc:
            validate_parameters(make_params(horizons=[[0, 0], [0, 0]]))
        assert (exc.value.row, exc.value.col) == (0, 1)
        assert "[1][2]" in str(exc.value)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(errors.DimensionMismatch):
            validate_parameters(make_params(theta=[-1.0, -1.0, -1.0]))
        with pytest.raises(errors.DimensionMismatch):
            validate_parameters(make_params(couplings=[[0.0, 0.1]]))

    def test_non_finite_theta_rejected(self):
        with pytest.raises(errors.NonFiniteParameter):
            validate_parameters(make_params(theta=[-1.0, np.inf]))

    def test_non_finite_coupling_rejected(self):
        with pytest.raises(errors.NonFiniteParameter):
            validate_parameters(make_params(couplings=[[0.0, np.nan], [0.0, 0.0]]))

    def test_positive_theta_allowed(self):
        p = validate_parameters(make_params(theta=[0.5, -1.0]))
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
