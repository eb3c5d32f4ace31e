"""Model layer: rollouts, Jacobian fallbacks, dataset serialization."""

import numpy as np
import pytest

from msid import (Dataset, DimensionMismatch, DynamicalModel, ModelDims,
                  NonFiniteState, NonFiniteValue, load_dataset,
                  numeric_jacobian, rollout, save_dataset, scalar_linear_model)
from conftest import (ATTITUDE_DT, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                      max_rel_gap, random_smooth_model)
from msid.systems import euler_attitude_model


def identity_model(n):
    return DynamicalModel(dims=ModelDims(n, 1, n, 1),
                          f=lambda x, u, th: x, g=lambda x: x)


class TestRollout:
    def test_identity_model_fixed_point(self):
        model = identity_model(2)
        traj = rollout(model, [1.0, 2.0], [0.0], np.zeros((3, 1)))
        assert traj.states.shape == (4, 2)
        assert np.array_equal(traj.states, np.tile([1.0, 2.0], (4, 1)))
        assert np.array_equal(traj.predictions, np.tile([1.0, 2.0], (3, 1)))

    def test_scalar_geometric_sequence(self):
        model = scalar_linear_model()
        traj = rollout(model, [1.0], [2.0], np.zeros((3, 1)))
        assert np.array_equal(traj.states.ravel(), [1.0, 2.0, 4.0, 8.0])

    def test_attitude_matches_independent_integrator(self):
        # Oracle: the same discrete map coded from scratch with plain floats.
        model = euler_attitude_model(dt=ATTITUDE_DT)
        horizon = 50
        traj = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, np.zeros((horizon, 3)))

        ix, iy, iz = (float(v) for v in ATTITUDE_THETA)
        wx, wy, wz = (float(v) for v in ATTITUDE_OMEGA0)
        states = [(wx, wy, wz)]
        for _ in range(horizon):
            cx = wy * (iz * wz) - wz * (iy * wy)
            cy = wz * (ix * wx) - wx * (iz * wz)
            cz = wx * (iy * wy) - wy * (ix * wx)
            wx, wy, wz = (wx + ATTITUDE_DT * (0.0 - cx) / ix,
                          wy + ATTITUDE_DT * (0.0 - cy) / iy,
                          wz + ATTITUDE_DT * (0.0 - cz) / iz)
            states.append((wx, wy, wz))
        oracle = np.array(states)
        assert np.max(np.abs(traj.states - oracle)) <= 1e-12

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(0)
        model = random_smooth_model(rng, 3, 2, 2, 2)
        inputs = rng.normal(size=(20, 2))
        x0 = rng.normal(size=3)
        theta = rng.normal(size=2)
        first = rollout(model, x0, theta, inputs)
        second = rollout(model, x0, theta, inputs)
        assert np.array_equal(first.states, second.states)
        assert np.array_equal(first.predictions, second.predictions)

    def test_time_invariance_shift(self):
        rng = np.random.default_rng(1)
        model = random_smooth_model(rng, 2, 1, 2, 2)
        inputs = rng.normal(size=(15, 1))
        theta = rng.normal(size=2)
        full = rollout(model, rng.normal(size=2), theta, inputs)
        shift = 6
        suffix = rollout(model, full.states[shift], theta, inputs[shift:])
        assert np.array_equal(suffix.states, full.states[shift:])

    def test_stored_states_reproduce_bit_for_bit(self):
        rng = np.random.default_rng(2)
        model = random_smooth_model(rng, 3, 1, 3, 2)
        inputs = rng.normal(size=(10, 1))
        theta = rng.normal(size=2)
        traj = rollout(model, rng.normal(size=3), theta, inputs)
        for k in range(traj.horizon):
            again = model.f(traj.states[k], inputs[k], theta)
            assert np.array_equal(again, traj.states[k + 1])
            assert np.array_equal(model.g(traj.states[k]), traj.predictions[k])

    def test_dimension_mismatch(self):
        model = identity_model(2)
        with pytest.raises(DimensionMismatch):
            rollout(model, [1.0, 2.0, 3.0], [0.0], np.zeros((3, 1)))
        with pytest.raises(DimensionMismatch):
            rollout(model, [1.0, 2.0], [0.0], np.zeros((3, 2)))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_first_step(self):
        model = DynamicalModel(dims=ModelDims(1, 1, 1, 1),
                               f=lambda x, u, th: x * x * 1e4,
                               g=lambda x: x)
        with pytest.raises(NonFiniteState) as excinfo:
            rollout(model, [10.0], [1.0], np.zeros((100, 1)))
        assert excinfo.value.step is not None
        assert 1 <= excinfo.value.step <= 100

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reports_exact_first_step(self):
        # 10 -> 1e6 -> 1e16 -> 1e36 -> 1e76 -> 1e156 -> inf at step 6
        model = DynamicalModel(dims=ModelDims(1, 1, 1, 1),
                               f=lambda x, u, th: x * x * 1e4,
                               g=lambda x: x)
        with pytest.raises(NonFiniteState, match="step 6") as excinfo:
            rollout(model, [10.0], [1.0], np.zeros((100, 1)))
        assert excinfo.value.step == 6


class TestNumericJacobian:
    def test_identity(self):
        jac = numeric_jacobian(lambda x: x, np.array([0.3, -2.0, 5.0]))
        assert np.max(np.abs(jac - np.eye(3))) <= 1e-12

    def test_square(self):
        jac = numeric_jacobian(lambda x: x * x, np.array([3.0]))
        assert abs(jac[0, 0] - 6.0) <= 1e-6

    def test_attitude_jacobian_cross_check(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        u = np.zeros(3)
        analytic = model.jac_f_x(ATTITUDE_OMEGA0, u, ATTITUDE_THETA)
        numeric = numeric_jacobian(
            lambda w: model.f(w, u, ATTITUDE_THETA), ATTITUDE_OMEGA0)
        assert max_rel_gap(analytic, numeric) <= 1e-5

    def test_fallback_jacobians_fill_in(self):
        rng = np.random.default_rng(3)
        reference = random_smooth_model(rng, 3, 2, 2, 2)
        bare = DynamicalModel(dims=reference.dims, f=reference.f, g=reference.g)
        x = rng.normal(size=3)
        u = rng.normal(size=2)
        theta = rng.normal(size=2)
        assert max_rel_gap(bare.jac_f_x(x, u, theta),
                           reference.jac_f_x(x, u, theta)) <= 1e-5
        assert max_rel_gap(bare.jac_f_theta(x, u, theta),
                           reference.jac_f_theta(x, u, theta)) <= 1e-5
        assert max_rel_gap(bare.jac_g_x(x), reference.jac_g_x(x)) <= 1e-5


class TestJacobianConsistency:
    @pytest.mark.parametrize("factory,scale", [
        (lambda: euler_attitude_model(dt=ATTITUDE_DT), 0.5),
        (scalar_linear_model, 1.0),
    ])
    def test_bundled_models_match_finite_differences(self, factory, scale):
        model = factory()
        dims = model.dims
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = scale * rng.normal(size=dims.n_x)
            u = scale * rng.normal(size=dims.n_u)
            theta = rng.uniform(0.2, 1.0, dims.n_theta)
            assert max_rel_gap(
                model.jac_f_x(x, u, theta),
                numeric_jacobian(lambda v: model.f(v, u, theta), x)) <= 1e-5
            assert max_rel_gap(
                model.jac_f_theta(x, u, theta),
                numeric_jacobian(lambda v: model.f(x, u, v), theta)) <= 1e-5
            assert max_rel_gap(
                model.jac_g_x(x), numeric_jacobian(model.g, x)) <= 1e-5


class TestDataset:
    def test_requires_two_samples(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_equal_lengths(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 1)), np.zeros((4, 1)))

    @pytest.mark.parametrize("field, value", [("observations", np.nan),
                                              ("inputs", -np.inf)])
    def test_rejects_non_finite_values_naming_the_entry(self, field, value):
        data = {"inputs": np.zeros((10, 2)), "observations": np.ones((10, 2))}
        data[field][7, 1] = value
        with pytest.raises(NonFiniteValue, match=rf"{field}\[7, 1\]"):
            Dataset(data["inputs"], data["observations"])

    def test_immutable(self):
        dataset = Dataset(np.zeros((3, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            dataset.inputs[0, 0] = 1.0

    def test_prefix(self):
        dataset = Dataset(np.arange(8.0).reshape(4, 2), np.ones((4, 1)), dt=0.5)
        shorter = dataset.prefix(2)
        assert len(shorter) == 2
        assert shorter.dt == 0.5
        assert np.array_equal(shorter.inputs, dataset.inputs[:2])

    def test_csv_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(4)
        dataset = Dataset(rng.normal(size=(7, 2)) * 1e-5,
                          rng.normal(size=(7, 3)), dt=0.1)
        path = tmp_path / "data.csv"
        save_dataset(path, dataset, n_x=3)
        loaded, n_x = load_dataset(path)
        assert n_x == 3
        assert loaded.dt == dataset.dt
        assert np.array_equal(loaded.inputs, dataset.inputs)
        assert np.array_equal(loaded.observations, dataset.observations)
