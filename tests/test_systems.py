"""Attitude dynamics, data generation, and rotational energy."""

import dataclasses

import numpy as np
import pytest

from msid import (DimensionMismatch, NoiseSpec, NonFiniteState, NonPositiveInertia,
                  angular_rates, euler_attitude_model, euler_step, generate_dataset,
                  numeric_jacobian, rollout, rotational_energy,
                  rotational_energy_gradient, rotational_energy_term)
from msid.systems import attitude_trajectory
from conftest import (ATTITUDE_DT, ATTITUDE_NOISE, ATTITUDE_OMEGA0,
                      ATTITUDE_THETA, jacobians_at, max_rel_gap)

CYCLE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


class TestEulerStep:
    def test_rest_is_equilibrium(self):
        for integrator in ("forward_euler", "rk4"):
            next_omega = euler_step(np.zeros(3), np.zeros(3), ATTITUDE_THETA,
                                    0.1, integrator)
            assert np.array_equal(next_omega, np.zeros(3))

    def test_principal_axis_spin_is_steady(self):
        for axis in range(3):
            omega = np.zeros(3)
            omega[axis] = 0.7
            for integrator in ("forward_euler", "rk4"):
                next_omega = euler_step(omega, np.zeros(3), ATTITUDE_THETA,
                                        0.1, integrator)
                assert np.array_equal(next_omega, omega)

    def test_one_step_frozen_oracle_values(self):
        # frozen output of an independently coded scalar-arithmetic step at
        # the attitude fixture (zero torque, dt = 0.1)
        next_omega = euler_step(ATTITUDE_OMEGA0, np.zeros(3), ATTITUDE_THETA,
                                ATTITUDE_DT, "forward_euler")
        expected = np.array([9.913832373302233e-06,
                             -0.001102000010447114,
                             1.31790136579125e-05])
        assert np.max(np.abs(next_omega - expected)) == 0.0
        # gyroscopic coupling term has the expected tiny magnitude
        coupling = abs(ATTITUDE_OMEGA0[1] * ATTITUDE_OMEGA0[2]
                       * (ATTITUDE_THETA[2] - ATTITUDE_THETA[1]))
        assert coupling == pytest.approx(4.7e-10, rel=0.01)

    def test_bit_identical_to_numpy_array_arithmetic(self):
        # reference: the same formulas evaluated on numpy float64 scalars
        def rates(w, m, i):
            return np.array([(m[0] - (i[2] - i[1]) * w[1] * w[2]) / i[0],
                             (m[1] - (i[0] - i[2]) * w[2] * w[0]) / i[1],
                             (m[2] - (i[1] - i[0]) * w[0] * w[1]) / i[2]])

        def reference(w, m, i, dt, integrator):
            if integrator == "forward_euler":
                return w + dt * rates(w, m, i)
            k1 = rates(w, m, i)
            k2 = rates(w + 0.5 * dt * k1, m, i)
            k3 = rates(w + 0.5 * dt * k2, m, i)
            k4 = rates(w + dt * k3, m, i)
            return w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        rng = np.random.default_rng(12)
        for integrator in ("forward_euler", "rk4"):
            for _ in range(200):
                omega = rng.normal(size=3) * 10.0 ** rng.uniform(-6, 1)
                torque = rng.normal(size=3) * 10.0 ** rng.uniform(-7, 0)
                inertia = rng.uniform(1e-3, 1.0, 3)
                dt = rng.uniform(0.01, 0.5)
                assert np.array_equal(
                    euler_step(omega, torque, inertia, dt, integrator),
                    reference(omega, torque, inertia, dt, integrator))
                assert np.array_equal(angular_rates(omega, torque, inertia),
                                      rates(omega, torque, inertia))

    def test_rejects_nonpositive_inertia(self):
        with pytest.raises(NonPositiveInertia):
            euler_step(ATTITUDE_OMEGA0, np.zeros(3),
                       np.array([0.1, -0.1, 0.1]), 0.1)
        with pytest.raises(NonPositiveInertia):
            rotational_energy(ATTITUDE_OMEGA0, np.array([0.0, 0.1, 0.1]))

    @pytest.mark.parametrize("integrator", ["forward_euler", "rk4"])
    def test_every_bad_inertia_raises_from_euler_step(self, integrator):
        for bad, error in ((np.array([0.04, 0.04]), DimensionMismatch),
                           (np.full((3, 1), 0.04), DimensionMismatch),
                           (np.array([0.04, 0.0, 0.008]), NonPositiveInertia),
                           (np.array([0.04, -0.04, 0.008]), NonPositiveInertia),
                           (np.array([0.04, np.nan, 0.008]), NonPositiveInertia)):
            with pytest.raises(error):
                euler_step(ATTITUDE_OMEGA0, np.zeros(3), bad, 0.1, integrator)

    def test_cyclic_permutation_commutes(self):
        rng = np.random.default_rng(0)
        for integrator in ("forward_euler", "rk4"):
            for _ in range(20):
                omega = rng.normal(scale=0.5, size=3)
                torque = rng.normal(scale=0.1, size=3)
                inertia = rng.uniform(0.2, 1.0, 3)
                direct = CYCLE @ euler_step(omega, torque, inertia, 0.1, integrator)
                permuted = euler_step(CYCLE @ omega, CYCLE @ torque,
                                      CYCLE @ inertia, 0.1, integrator)
                assert np.array_equal(direct, permuted)


INTEGRATORS = ("forward_euler", "rk4")


def random_step_arguments(rng, n):
    omega = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 1, (n, 1))
    torque = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-7, 0, (n, 1))
    inertia = rng.uniform(1e-3, 1.0, (n, 3))
    return omega, torque, inertia


class TestBlockEulerStep:
    """A block step equals the per-point steps of its rows bit for bit."""

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_block_equals_per_row_calls(self, integrator):
        omega, torque, inertia = random_step_arguments(np.random.default_rng(41), 2000)

        def step(w, m, i):
            return euler_step(w, m, i, ATTITUDE_DT, integrator)

        def per_row(w, m, i):
            return np.stack([step(*row) for row in zip(*np.broadcast_arrays(w, m, i))])

        w0, m0, i0 = omega[0], torque[0], inertia[0]
        for args in ((omega, torque, inertia),     # every argument a block
                     (omega, m0, i0),              # an omega block
                     (w0, m0, inertia),            # an inertia block
                     (omega, m0, inertia),         # mixed points and blocks
                     (w0, torque, i0)):
            assert np.array_equal(step(*args), per_row(*args))
        nested = [a[:10].reshape(2, 5, 3) for a in (omega, torque, inertia)]
        assert np.array_equal(step(*nested).reshape(10, 3),
                              per_row(omega[:10], torque[:10], inertia[:10]))

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_one_bad_inertia_row_raises(self, integrator):
        omega, torque, inertia = random_step_arguments(np.random.default_rng(42), 5)
        for bad in (0.0, -0.02, np.nan):
            block = inertia.copy()
            block[3, 1] = bad
            with pytest.raises(NonPositiveInertia):
                euler_step(omega, torque, block, 0.1, integrator)
            with pytest.raises(NonPositiveInertia):
                euler_step(omega[0], torque[0], block, 0.1, integrator)

    def test_wrong_block_shapes_raise(self):
        omega, torque, inertia = random_step_arguments(np.random.default_rng(43), 5)
        for args in ((omega[:, :2], torque, inertia),
                     (omega, torque[:, :2], inertia),
                     (omega, torque, inertia[:, :2])):
            with pytest.raises(DimensionMismatch):
                euler_step(*args, 0.1)
        with pytest.raises(ValueError, match="broadcast"):
            euler_step(omega[:4], torque, inertia, 0.1)


class TestAttitudeTrajectory:
    """The attitude model's one-call rollout equals the step-by-step one."""

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    @pytest.mark.parametrize("horizon", [1, 511, 512, 513, 1200])
    def test_equals_a_loop_of_euler_steps(self, integrator, horizon):
        rng = np.random.default_rng(horizon)
        torques = rng.normal(scale=1e-3, size=(horizon, 3))
        omega0 = rng.normal(scale=0.1, size=3)
        inertia = rng.uniform(0.2, 1.0, 3)
        expected = [omega0]
        for torque in torques:
            expected.append(euler_step(expected[-1], torque, inertia, ATTITUDE_DT,
                                       integrator))
        states = attitude_trajectory(omega0, torques, inertia, ATTITUDE_DT, integrator)
        assert states.shape == (horizon + 1, 3)
        assert np.isfinite(states).all()
        assert np.array_equal(states, np.array(expected))
        # torques that are not C-contiguous give the same states
        assert np.array_equal(attitude_trajectory(omega0, np.asfortranarray(torques), inertia,
                                                  ATTITUDE_DT, integrator), states)

    def test_wrong_shapes_raise(self):
        for omega0, torques in ((np.zeros(2), np.zeros((4, 3))),
                                (np.zeros(3), np.zeros((4, 2))),
                                (np.zeros(3), np.zeros(3))):
            with pytest.raises(DimensionMismatch):
                attitude_trajectory(omega0, torques, ATTITUDE_THETA, ATTITUDE_DT)

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_rollout_equals_the_step_loop_of_f(self, integrator):
        model = euler_attitude_model(dt=ATTITUDE_DT, integrator=integrator)
        assert model.simulate is not None
        stepwise = dataclasses.replace(model, simulate=None)
        rng = np.random.default_rng(45)
        inputs = rng.normal(scale=1e-3, size=(700, 3))
        for theta in rng.uniform(0.005, 1.0, size=(3, 3)):
            fast = rollout(model, ATTITUDE_OMEGA0, theta, inputs)
            slow = rollout(stepwise, ATTITUDE_OMEGA0, theta, inputs)
            assert np.array_equal(fast.states, slow.states)
            assert np.array_equal(fast.predictions, slow.predictions)

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_bad_inertia_raises_from_rollout(self, integrator):
        model = euler_attitude_model(dt=ATTITUDE_DT, integrator=integrator)
        for candidate in (model, dataclasses.replace(model, simulate=None)):
            for bad in (0.0, -0.02, np.nan):
                theta = ATTITUDE_THETA.copy()
                theta[1] = bad
                with pytest.raises(NonPositiveInertia):
                    rollout(candidate, ATTITUDE_OMEGA0, theta, np.zeros((5, 3)))

    @pytest.mark.parametrize("integrator,step", [("forward_euler", 5), ("rk4", 2)])
    def test_overflow_reports_the_same_step_as_the_loop(self, integrator, step):
        model = euler_attitude_model(dt=ATTITUDE_DT, integrator=integrator)
        omega0 = np.array([1e20, -2e20, 3e20])
        for candidate in (model, dataclasses.replace(model, simulate=None)):
            with pytest.raises(NonFiniteState) as excinfo:
                rollout(candidate, omega0, ATTITUDE_THETA, np.zeros((40, 3)))
            assert excinfo.value.step == step


class TestEulerJacobians:
    def test_identity_at_rest(self):
        model = euler_attitude_model(dt=0.1)
        jac_x = model.jac_f_x_batch(np.zeros((1, 3)), np.zeros((1, 3)), ATTITUDE_THETA)
        assert np.array_equal(jac_x, np.eye(3)[None])

    def test_parameter_jacobian_zero_at_rest_without_torque(self):
        model = euler_attitude_model(dt=0.1)
        jac_theta = model.jac_f_theta_batch(np.zeros((1, 3)), np.zeros((1, 3)), ATTITUDE_THETA)
        assert np.array_equal(jac_theta, np.zeros((1, 3, 3)))

    def test_matches_finite_differences_at_random_points(self):
        model = euler_attitude_model(dt=0.1)
        rng = np.random.default_rng(1)
        for _ in range(100):
            omega = rng.normal(scale=0.8, size=3)
            torque = rng.normal(scale=0.1, size=3)
            inertia = rng.uniform(0.05, 1.0, 3)
            jac_x, jac_theta, _ = jacobians_at(model, omega, torque, inertia)
            fd_x = numeric_jacobian(
                lambda w: euler_step(w, torque, inertia, 0.1), omega)
            fd_theta = numeric_jacobian(
                lambda th: euler_step(omega, torque, th, 0.1), inertia)
            assert max_rel_gap(jac_x, fd_x) <= 1e-5
            assert max_rel_gap(jac_theta, fd_theta) <= 1e-5

    def test_rk4_model_uses_numeric_fallback(self):
        model = euler_attitude_model(dt=0.05, integrator="rk4")
        omega = np.array([0.1, -0.2, 0.3])
        torque = np.array([0.01, 0.0, -0.02])
        jac = model.jac_f_x_batch(omega[None], torque[None], ATTITUDE_THETA)[0]
        fd = numeric_jacobian(
            lambda w: euler_step(w, torque, ATTITUDE_THETA, 0.05, "rk4"), omega)
        assert max_rel_gap(jac, fd) <= 1e-9


def reference_euler_jacobians(omega, torque, inertia, dt):
    """The per-point attitude formulas the batched form replaced."""
    wx, wy, wz = omega[0], omega[1], omega[2]
    ix, iy, iz = inertia[0], inertia[1], inertia[2]
    jac_x = np.array([
        [1.0, -dt * (iz - iy) * wz / ix, -dt * (iz - iy) * wy / ix],
        [-dt * (ix - iz) * wz / iy, 1.0, -dt * (ix - iz) * wx / iy],
        [-dt * (iy - ix) * wy / iz, -dt * (iy - ix) * wx / iz, 1.0],
    ])
    jac_theta = np.array([
        [-dt * (torque[0] - (iz - iy) * wy * wz) / ix ** 2,
         dt * wy * wz / ix, -dt * wy * wz / ix],
        [-dt * wz * wx / iy,
         -dt * (torque[1] - (ix - iz) * wz * wx) / iy ** 2,
         dt * wz * wx / iy],
        [dt * wx * wy / iz, -dt * wx * wy / iz,
         -dt * (torque[2] - (iy - ix) * wx * wy) / iz ** 2],
    ])
    return jac_x, jac_theta


class TestAttitudeJacobianForms:
    def test_point_and_batch_forms_agree_bit_for_bit(self):
        # the batch, a batch of one row, and the per-point reference formulas
        model = euler_attitude_model(dt=ATTITUDE_DT)
        rng = np.random.default_rng(31)
        states = rng.normal(scale=0.8, size=(500, 3))
        inputs = rng.normal(scale=0.1, size=(500, 3))
        for inertia in rng.uniform(0.005, 1.0, size=(4, 3)):
            batch_x = model.jac_f_x_batch(states, inputs, inertia)
            batch_theta = model.jac_f_theta_batch(states, inputs, inertia)
            for k, (omega, torque) in enumerate(zip(states, inputs)):
                ref_x, ref_theta = reference_euler_jacobians(
                    omega, torque, inertia, ATTITUDE_DT)
                one_x, one_theta, _ = jacobians_at(model, omega, torque, inertia)
                assert np.array_equal(one_x, ref_x)
                assert np.array_equal(one_theta, ref_theta)
                assert np.array_equal(batch_x[k], ref_x)
                assert np.array_equal(batch_theta[k], ref_theta)

    def test_nonpositive_inertia_rejected_by_every_form(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        bad = np.array([0.04, -0.01, 0.008])
        states, inputs = np.zeros((2, 3)), np.zeros((2, 3))
        for evaluate in (lambda: model.jac_f_x_batch(states[:1], inputs[:1], bad),
                         lambda: model.jac_f_theta_batch(states[:1], inputs[:1], bad),
                         lambda: model.jac_f_x_batch(states, inputs, bad),
                         lambda: model.jac_f_theta_batch(states, inputs, bad)):
            with pytest.raises(NonPositiveInertia):
                evaluate()


def reference_row_differencing(model, states, inputs, theta):
    """The fallback before f took blocks: numeric_jacobian over blocks whose
    f evaluations run one row per call, stacked."""
    def rows(fn, *blocks):
        return np.stack([np.asarray(fn(*row), dtype=float) for row in zip(*blocks)])

    jac_x = numeric_jacobian(
        lambda block: rows(lambda x, u: model.f(x, u, theta), block, inputs), states)
    jac_theta = numeric_jacobian(
        lambda block: rows(model.f, states, inputs, block),
        np.broadcast_to(theta, (len(states),) + theta.shape))
    return jac_x, jac_theta


class TestRk4Fallback:
    def test_block_differences_equal_row_by_row_differencing(self):
        model = euler_attitude_model(dt=ATTITUDE_DT, integrator="rk4")
        rng = np.random.default_rng(44)
        states = rng.normal(scale=0.8, size=(400, 3))
        inputs = rng.normal(scale=0.1, size=(400, 3))
        for theta in rng.uniform(0.005, 1.0, size=(3, 3)):
            jac_x, jac_theta = reference_row_differencing(model, states, inputs, theta)
            assert np.array_equal(model.jac_f_x_batch(states, inputs, theta), jac_x)
            assert np.array_equal(model.jac_f_theta_batch(states, inputs, theta), jac_theta)


ONE_INERTIA_CALLERS = {
    "jac_f_x_batch": lambda model, s, block: model.jac_f_x_batch(s, s, block),
    "jac_f_theta_batch": lambda model, s, block: model.jac_f_theta_batch(s, s, block),
    "rotational_energy": lambda model, s, block: rotational_energy(s, block),
    "rotational_energy_gradient":
        lambda model, s, block: rotational_energy_gradient(s, block),
    "rotational_energy_term": lambda model, s, block: rotational_energy_term(block, 0.0),
}


@pytest.mark.parametrize("caller", ONE_INERTIA_CALLERS)
@pytest.mark.parametrize("rows", [2, 3])
def test_one_inertia_callers_reject_an_inertia_block(caller, rows):
    # only euler_step takes inertia rows; the formulas that unpack one
    # inertia must not unpack the three rows of a (3, 3) block instead
    model = euler_attitude_model(dt=ATTITUDE_DT)
    states = np.full((rows, 3), 0.1)
    with pytest.raises(DimensionMismatch):
        ONE_INERTIA_CALLERS[caller](model, states, np.full((rows, 3), 0.04))


class TestGenerateDataset:
    def test_zero_noise_reproduces_rollout(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        noise = NoiseSpec(torque_mean=0.0, torque_std=0.0, obs_std=0.0, seed=3)
        dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                   20, noise, dt=ATTITUDE_DT)
        assert np.array_equal(dataset.inputs, np.zeros((20, 3)))
        trajectory = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, dataset.inputs)
        assert np.array_equal(dataset.observations, trajectory.predictions)

    def test_same_seed_bit_identical(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        noise = NoiseSpec(seed=9, **ATTITUDE_NOISE)
        first = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                 25, noise, dt=ATTITUDE_DT)
        second = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                  25, noise, dt=ATTITUDE_DT)
        assert np.array_equal(first.inputs, second.inputs)
        assert np.array_equal(first.observations, second.observations)

    def test_longer_horizon_extends_prefix(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        noise = NoiseSpec(seed=11, **ATTITUDE_NOISE)
        short = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                 50, noise, dt=ATTITUDE_DT)
        long = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                100, noise, dt=ATTITUDE_DT)
        assert np.array_equal(long.inputs[:50], short.inputs)
        assert np.array_equal(long.observations[:50], short.observations)

    def test_observation_noise_statistics(self):
        # 10^4+ residual samples match the configured noise level within 5%
        model = euler_attitude_model(dt=ATTITUDE_DT)
        noise = NoiseSpec(seed=11, **ATTITUDE_NOISE)
        horizon = 3334
        dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                   horizon, noise, dt=ATTITUDE_DT)
        trajectory = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, dataset.inputs)
        residuals = dataset.observations - trajectory.predictions
        assert residuals.size >= 10_000
        assert abs(residuals.std() - ATTITUDE_NOISE["obs_std"]) \
            <= 0.05 * ATTITUDE_NOISE["obs_std"]

    def test_true_parameter_errors_have_noise_scale(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        noise = NoiseSpec(seed=4, **ATTITUDE_NOISE)
        dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                   50, noise, dt=ATTITUDE_DT)
        trajectory = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, dataset.inputs)
        errors = trajectory.predictions - dataset.observations
        assert np.any(errors != 0.0)
        assert abs(errors.std() - 1e-4) <= 0.15e-4


class TestRotationalEnergy:
    def test_zero_at_rest(self):
        assert rotational_energy(np.zeros(3), ATTITUDE_THETA) == 0.0

    def test_hand_value(self):
        energy = rotational_energy(np.array([1.0, 0.0, 0.0]),
                                   np.array([2.0, 2.0, 2.0]))
        assert energy == pytest.approx(1.0, abs=1e-15)

    def test_block_equals_per_state_dot_product(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-4, 1, (500, 1))
        rows = [0.5 * float(ATTITUDE_THETA @ (omega * omega)) for omega in block]
        assert np.array_equal(rotational_energy(block, ATTITUDE_THETA), rows)

    def test_gradient_is_inertia_times_omega(self):
        omega = np.array([0.2, -0.1, 0.4])
        grad = rotational_energy_gradient(omega, ATTITUDE_THETA)
        assert np.array_equal(grad, ATTITUDE_THETA * omega)

    def test_torque_free_drift_is_tiny(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        trajectory = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                             np.zeros((50, 3)))
        start = rotational_energy(trajectory.states[0], ATTITUDE_THETA)
        end = rotational_energy(trajectory.states[-1], ATTITUDE_THETA)
        assert abs(end - start) / start < 1e-4

    def test_energy_term_wiring(self):
        term = rotational_energy_term(ATTITUDE_THETA, reference=0.0, weight=2.0)
        omega = np.array([0.1, 0.2, 0.3])
        expected = rotational_energy(omega, ATTITUDE_THETA) ** 2
        assert term.value(omega, None) == pytest.approx(expected, rel=1e-14)
        assert term.weight == 2.0


class TestAngularRates:
    def test_solves_momentum_balance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            omega = rng.normal(size=3)
            torque = rng.normal(size=3)
            inertia = rng.uniform(0.1, 1.0, 3)
            rates = angular_rates(omega, torque, inertia)
            balance = inertia * rates + np.cross(omega, inertia * omega) - torque
            assert np.max(np.abs(balance)) <= 1e-12
