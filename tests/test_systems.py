"""Attitude dynamics, data generation, and rotational energy."""

import numpy as np
import pytest

from msid import (NoiseSpec, NonPositiveInertia, angular_rates,
                  euler_attitude_model, euler_jacobians, euler_step,
                  generate_dataset, numeric_jacobian, rollout,
                  rotational_energy, rotational_energy_gradient,
                  rotational_energy_term)
from conftest import (ATTITUDE_DT, ATTITUDE_NOISE, ATTITUDE_OMEGA0,
                      ATTITUDE_THETA, max_rel_gap)

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


class TestEulerJacobians:
    def test_identity_at_rest(self):
        jac_x, _ = euler_jacobians(np.zeros(3), np.zeros(3), ATTITUDE_THETA, 0.1)
        assert np.array_equal(jac_x, np.eye(3))

    def test_parameter_jacobian_zero_at_rest_without_torque(self):
        _, jac_theta = euler_jacobians(np.zeros(3), np.zeros(3), ATTITUDE_THETA, 0.1)
        assert np.array_equal(jac_theta, np.zeros((3, 3)))

    def test_matches_finite_differences_at_random_points(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            omega = rng.normal(scale=0.8, size=3)
            torque = rng.normal(scale=0.1, size=3)
            inertia = rng.uniform(0.05, 1.0, 3)
            jac_x, jac_theta = euler_jacobians(omega, torque, inertia, 0.1)
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
        jac = model.jac_f_x(omega, torque, ATTITUDE_THETA)
        fd = numeric_jacobian(
            lambda w: euler_step(w, torque, ATTITUDE_THETA, 0.05, "rk4"), omega)
        assert max_rel_gap(jac, fd) <= 1e-9


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
