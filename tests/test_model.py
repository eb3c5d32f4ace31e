"""Model layer: rollouts, Jacobian fallbacks, dataset serialization."""

import numpy as np
import pytest

from msid import (Dataset, DimensionMismatch, DynamicalModel, LossSpec, ModelDims,
                  NonFiniteState, NonFiniteValue, gradient, load_dataset,
                  numeric_jacobian, rollout, save_dataset, scalar_linear_model)
from conftest import (ATTITUDE_DT, ATTITUDE_OMEGA0, ATTITUDE_THETA, jacobians_at,
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

    def test_g_is_called_once_on_the_block_of_states(self):
        calls = []

        def g(x):
            calls.append(np.shape(x))
            return 2.0 * x

        model = DynamicalModel(dims=ModelDims(2, 1, 2, 1), f=lambda x, u, th: x + u, g=g)
        traj = rollout(model, [1.0, 2.0], [0.0], np.ones((4, 1)))
        assert calls == [(4, 2)]
        states = np.array([[1.0, 2.0], [2.0, 3.0], [3.0, 4.0], [4.0, 5.0], [5.0, 6.0]])
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.predictions, 2.0 * states[:4])

    def test_per_point_g_is_refused(self):
        # on a block, x[0] + x[1] adds two states, not two components
        model = DynamicalModel(dims=ModelDims(2, 1, 1, 1), f=lambda x, u, th: x,
                               g=lambda x: np.array([x[0] + x[1]]))
        with pytest.raises(DimensionMismatch, match="g must be row-wise"):
            rollout(model, [1.0, 2.0], [0.0], np.zeros((3, 1)))

    def test_wrong_shape_f_is_refused_at_step_0(self):
        model = DynamicalModel(dims=ModelDims(2, 1, 2, 1),
                               f=lambda x, u, th: np.append(x, 0.0), g=lambda x: x)
        with pytest.raises(DimensionMismatch, match=r"^f .*\(3,\).*\(2,\)"):
            rollout(model, [1.0, 2.0], [0.0], np.zeros((3, 1)))

    def test_wrong_shape_simulate_is_refused(self):
        for rows in (3, 5):  # one state short, one too many
            model = DynamicalModel(dims=ModelDims(2, 1, 2, 1), f=lambda x, u, th: x,
                                   g=lambda x: x,
                                   simulate=lambda x0, u, th, n=rows: np.zeros((n, 2)))
            with pytest.raises(DimensionMismatch, match=r"^simulate .*\(4, 2\)"):
                rollout(model, [1.0, 2.0], [0.0], np.zeros((3, 1)))

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
        analytic = model.jac_f_x_batch(ATTITUDE_OMEGA0[None], u[None], ATTITUDE_THETA)[0]
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
        for filled, given in zip(jacobians_at(bare, x, u, theta),
                                 jacobians_at(reference, x, u, theta)):
            assert max_rel_gap(filled, given) <= 1e-5


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
            jac_x, jac_theta, jac_g = jacobians_at(model, x, u, theta)
            assert max_rel_gap(
                jac_x, numeric_jacobian(lambda v: model.f(v, u, theta), x)) <= 1e-5
            assert max_rel_gap(
                jac_theta, numeric_jacobian(lambda v: model.f(x, u, v), theta)) <= 1e-5
            assert max_rel_gap(jac_g, numeric_jacobian(model.g, x)) <= 1e-5


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


def reference_numeric_jacobian(fn, point, step=1e-6):
    """The per-point central-difference loop the block form replaced."""
    p = np.asarray(point, dtype=float)
    jac = None
    for j in range(p.size):
        h = step * max(1.0, abs(p[j]))
        plus = p.copy()
        plus[j] += h
        minus = p.copy()
        minus[j] -= h
        f_plus = np.atleast_1d(np.asarray(fn(plus), dtype=float))
        f_minus = np.atleast_1d(np.asarray(fn(minus), dtype=float))
        if jac is None:
            jac = np.empty((f_plus.size, p.size))
        jac[:, j] = (f_plus - f_minus) / (plus[j] - minus[j])
    return jac


class TestOneJacobianForm:
    """Each derivative has one form, batched; a block equals its rows bit for bit."""

    def test_point_equals_reference_loop(self):
        rng = np.random.default_rng(21)
        mat = rng.normal(size=(2, 3))
        for _ in range(50):
            point = rng.normal(scale=10.0, size=3)
            assert np.array_equal(
                numeric_jacobian(lambda v: np.sin(mat @ v), point),
                reference_numeric_jacobian(lambda v: np.sin(mat @ v), point))

    @pytest.mark.parametrize("shape", [(7, 3), (2, 4, 3)])
    def test_block_equals_per_row_calls(self, shape):
        # elementwise maps, so that a block's rows round as single rows do
        # (a matrix product may not)
        block = np.random.default_rng(22).normal(scale=5.0, size=shape)
        rows = block.reshape(-1, 3)

        def vector_map(x):
            return np.stack([np.sin(x[..., 0] * x[..., 1]), x[..., 2] ** 3 - x[..., 0]],
                            axis=-1)

        def scalar_map(x):
            return np.sum(x * x * x, axis=-1)

        jac = numeric_jacobian(vector_map, block)
        grad = numeric_jacobian(scalar_map, block)
        assert jac.shape == shape[:-1] + (2, 3)
        assert grad.shape == shape
        assert np.array_equal(jac.reshape(-1, 2, 3),
                              np.stack([numeric_jacobian(vector_map, r) for r in rows]))
        assert np.array_equal(grad.reshape(-1, 3),
                              np.stack([numeric_jacobian(scalar_map, r) for r in rows]))

    def test_scalar_map_at_a_point_is_a_gradient(self):
        grad = numeric_jacobian(lambda x: float(x @ x), np.array([1.0, -2.0]))
        assert grad.shape == (2,)
        assert max_rel_gap(grad, [2.0, -4.0]) <= 1e-9

    def test_bare_model_differences_whole_blocks(self):
        rng = np.random.default_rng(24)
        reference = random_smooth_model(rng, 3, 2, 2, 2)
        bare = DynamicalModel(dims=reference.dims, f=reference.f, g=reference.g)
        states = rng.normal(size=(9, 3))
        inputs = rng.normal(size=(9, 2))
        theta = rng.normal(size=2)
        pairs = list(zip(states, inputs))
        f, g = reference.f, reference.g
        jac_x = np.stack([reference_numeric_jacobian(lambda v: f(v, u, theta), x)
                          for x, u in pairs])
        jac_theta = np.stack([reference_numeric_jacobian(lambda v: f(x, u, v), theta)
                              for x, u in pairs])
        jac_g = np.stack([reference_numeric_jacobian(g, x) for x in states])
        assert np.array_equal(bare.jac_f_x_batch(states, inputs, theta), jac_x)
        assert np.array_equal(bare.jac_f_theta_batch(states, inputs, theta), jac_theta)
        assert np.array_equal(bare.jac_g_x_batch(states), jac_g)


class TestRowWiseContract:
    """A map the fallback differences must be row-wise."""

    def test_per_point_f_without_jacobians_is_refused(self):
        # handed a block, this per-point f broadcasts into one (1, 1) value
        model = DynamicalModel(dims=ModelDims(1, 1, 1, 1),
                               f=lambda x, u, th: np.array([th[0] * x[0] + u[0]]),
                               g=lambda x: x)
        rng = np.random.default_rng(25)
        states, inputs, theta = rng.normal(size=(199, 1)), rng.normal(size=(199, 1)), [0.8]
        message = r"f must be row-wise: gave shape \(1, 1\), expected \(199, 1\)"
        with pytest.raises(DimensionMismatch, match=message):
            model.jac_f_x_batch(states, inputs, theta)
        with pytest.raises(DimensionMismatch, match=message):
            model.jac_f_theta_batch(states, inputs, np.array(theta))
        trajectory = rollout(model, [0.5], theta, inputs)
        dataset = Dataset(inputs, trajectory.predictions + 0.1)
        with pytest.raises(DimensionMismatch, match="f must be row-wise"):
            gradient(model, trajectory, dataset, LossSpec.scaled_identity(1, 199), theta)

    def test_per_point_g_without_jacobian_is_refused(self):
        model = DynamicalModel(dims=ModelDims(2, 1, 1, 1),
                               f=lambda x, u, th: x, g=lambda x: np.array([x[0] + x[1]]),
                               jac_f_x_batch=lambda s, i, th: np.broadcast_to(
                                   np.eye(2), (len(s), 2, 2)),
                               jac_f_theta_batch=lambda s, i, th: np.zeros((len(s), 2, 1)))
        with pytest.raises(DimensionMismatch,
                           match=r"g must be row-wise: gave shape \(1, 2\), expected \(5, 1\)"):
            model.jac_g_x_batch(np.ones((5, 2)))

    def test_scalar_model_f_is_row_wise(self):
        model = scalar_linear_model()
        rng = np.random.default_rng(26)
        states, inputs = rng.normal(size=(50, 1)), rng.normal(size=(50, 1))
        thetas = rng.normal(size=(50, 1))
        for theta in (thetas[0], thetas):
            per_row = np.stack([model.f(x, u, th) for x, u, th
                                in zip(*np.broadcast_arrays(states, inputs, theta))])
            assert np.array_equal(model.f(states, inputs, theta), per_row)
        bare = DynamicalModel(dims=model.dims, f=model.f, g=model.g)
        assert max_rel_gap(bare.jac_f_x_batch(states, inputs, thetas[0]),
                           model.jac_f_x_batch(states, inputs, thetas[0])) <= 1e-9
        assert max_rel_gap(bare.jac_f_theta_batch(states, inputs, thetas[0]),
                           model.jac_f_theta_batch(states, inputs, thetas[0])) <= 1e-9
