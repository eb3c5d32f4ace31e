"""Attitude dynamics, data generation, and rotational energy."""

import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (DimensionMismatch, DynamicalModel, NoiseSpec, NonFiniteState,
                  NonPositiveInertia, euler_attitude_model, euler_step,
                  generate_dataset, numeric_jacobian, rollout, rotational_energy,
                  rotational_energy_gradient, rotational_energy_term)
from msid.systems import attitude_trajectory, scalar_linear_model
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
        # reference: the folded formulas evaluated on numpy float64 scalars,
        # the inertia divided out into the torque terms and the coupling
        def folded(w, terms, coupling):
            return np.array([terms[0] - coupling[0] * (w[1] * w[2]),
                             terms[1] - coupling[1] * (w[2] * w[0]),
                             terms[2] - coupling[2] * (w[0] * w[1])])

        def rates(w, m, i):
            return folded(w, m / i, [(i[2] - i[1]) / i[0], (i[0] - i[2]) / i[1],
                                     (i[1] - i[0]) / i[2]])

        def reference(w, m, i, dt, integrator):
            if integrator == "forward_euler":
                return w + folded(w, m * (dt / i), [dt * (i[2] - i[1]) / i[0],
                                                    dt * (i[0] - i[2]) / i[1],
                                                    dt * (i[1] - i[0]) / i[2]])
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

    @pytest.mark.parametrize("argument", [0, 1, 2])
    @pytest.mark.parametrize("length", [2, 4])
    def test_point_of_another_length_is_refused_by_name(self, argument, length):
        # a (4,) torque used to lose its 4th component, a (4,) or (2,) omega
        # to raise a bare ValueError from tuple unpacking
        points = [ATTITUDE_OMEGA0, np.array([0.02, -0.03, 0.01]), ATTITUDE_THETA]
        points[argument] = np.full(length, 0.04)
        with pytest.raises(DimensionMismatch, match=rf"must have shape \(3,\).*\({length},\)"):
            euler_step(*points, 0.1)

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
# which of three drawn values each inertia component takes: all distinct,
# two equal (in each position) or all equal
PATTERNS = [(0, 1, 2), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)]


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
    @pytest.mark.parametrize("horizon", [0, 1, 2, 511, 512, 513, 1200])
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

    @given(inertia=st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
                             st.floats(1e-3, 10.0), st.sampled_from(PATTERNS)),
           omega0=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
           torques=st.integers(1, 64).flatmap(lambda horizon: st.lists(
               st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
               min_size=horizon, max_size=horizon)),
           dt=st.floats(1e-3, 1.0))
    @settings(derandomize=True, max_examples=60, deadline=None)
    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_written_out_kernel_equals_euler_steps(self, integrator, inertia, omega0,
                                                   torques, dt):
        # each integrator's loop writes the step out; it must stay the step
        *values, pattern = inertia
        inertia = np.array([values[k] for k in pattern])
        expected = [np.array(omega0)]
        for torque in torques:
            expected.append(euler_step(expected[-1], torque, inertia, dt, integrator))
        states = attitude_trajectory(omega0, torques, inertia, dt, integrator)
        assert np.array_equal(states, np.array(expected), equal_nan=True)

    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_rollout_makes_no_call_per_step(self, integrator):
        # a count of Python-level calls, not a timing: a written-out kernel
        # makes the same calls at every horizon
        def calls(horizon):
            events = []
            torques = np.full((horizon, 3), 1e-3)
            previous = sys.getprofile()
            sys.setprofile(lambda frame, event, arg: events.append(event))
            try:
                attitude_trajectory(ATTITUDE_OMEGA0, torques, ATTITUDE_THETA, ATTITUDE_DT,
                                    integrator)
            finally:
                sys.setprofile(previous)
            return events.count("call")

        assert calls(10) == calls(500) > 0

    @pytest.mark.parametrize("horizon", [0, 1])
    def test_unknown_integrator_is_refused_at_every_horizon(self, horizon):
        # T=0 takes no step, so the refusal must not come from one
        with pytest.raises(ValueError, match="unknown integrator 'bogus'"):
            attitude_trajectory(np.zeros(3), np.zeros((horizon, 3)), np.ones(3), 0.1, "bogus")

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


def signed_decades(low, high):
    """0.0, and floats of either sign whose magnitudes span 10**low to 10**high."""
    return st.one_of(st.just(0.0), st.builds(lambda exponent, sign: sign * 10.0 ** exponent,
                                             st.floats(low, high), st.sampled_from([-1.0, 1.0])))


def triples(elements):
    return st.lists(elements, min_size=3, max_size=3).map(np.array)


# omega, torque, inertia and dt over several decades; the inertia in each
# pattern of equal components
FOLDED_STEP_CASES = dict(
    omega0=triples(signed_decades(-6, 1)),
    torques=st.integers(1, 12).flatmap(lambda horizon: st.lists(
        triples(signed_decades(-7, 0)), min_size=horizon, max_size=horizon).map(np.array)),
    inertia=st.tuples(triples(st.floats(-3, 1).map(lambda exponent: 10.0 ** exponent)),
                      st.sampled_from(PATTERNS)).map(lambda drawn: drawn[0][list(drawn[1])]),
    dt=st.floats(-3, 0).map(lambda exponent: 10.0 ** exponent))


class TestFoldedStep:
    """Every evaluation of the step takes one folded form, and the
    forward-Euler Jacobians are the derivatives of that step."""

    @given(**FOLDED_STEP_CASES)
    @settings(derandomize=True, max_examples=100, deadline=None)
    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_rollout_point_and_block_steps_agree(self, integrator, omega0, torques, inertia,
                                                 dt):
        states = attitude_trajectory(omega0, torques, inertia, dt, integrator)
        # a rollout that overflows must still agree, non-finite rows included
        with np.errstate(all="ignore"):
            block = euler_step(states[:-1], torques, inertia, dt, integrator)
        assert np.array_equal(block, states[1:], equal_nan=True)
        for k, (omega, torque) in enumerate(zip(states[:-1], torques)):
            assert np.array_equal(euler_step(omega, torque, inertia, dt, integrator),
                                  states[k + 1], equal_nan=True)

    @given(**FOLDED_STEP_CASES)
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_euler_jacobians_converge_at_second_order(self, omega0, torques, inertia, dt):
        # central differences of f at steps h and h/2: by the state f is
        # quadratic, so only rounding remains; by the inertia, scaled to
        # relative steps, the truncation error is about h^2 times the entry,
        # falls by four when h halves and leaves h^4/4 after Richardson
        # extrapolation.  The floor bounds the rounding by the largest term
        # f adds up (at most half of it in 1,500 random cases).
        model = euler_attitude_model(dt=dt)
        states = attitude_trajectory(omega0, torques, inertia, dt)
        horizon = len(torques)
        for k in sorted({0, horizon // 2, horizon - 1}):
            omega, torque = states[k], torques[k]
            if not np.abs(omega).max() <= 1e50:
                continue
            jac_x, jac_theta = model.transition_jacobians(omega[None], torque[None], inertia)
            products = np.roll(omega, -1) * np.roll(omega, -2)
            size = (np.abs(omega).max() + np.abs(model.f(omega, torque, inertia)).max()
                    + np.abs(torque * dt / inertia).max()
                    + np.abs(dt * inertia.max() / inertia * products).max())
            floor = 8 * np.finfo(float).eps * size / 5e-4
            for fn, point, exact in (
                    (lambda w: model.f(w, torque, inertia), omega, jac_x[0]),
                    (lambda v: model.f(omega, torque, inertia * v), np.ones(3),
                     jac_theta[0] * inertia)):
                coarse, fine = (numeric_jacobian(fn, point, step=h) for h in (1e-3, 5e-4))
                extrapolated = (4 * fine - coarse) / 3
                errors = [np.abs(jac - exact).max() for jac in (coarse, fine, extrapolated)]
                scale = np.abs(exact).max()
                assert errors[1] <= 2 * 5e-4 ** 2 * scale + floor
                assert errors[1] <= 0.3 * errors[0] + floor
                assert errors[2] <= 1e-3 ** 4 * scale + floor


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
        jac = model.transition_jacobians(omega[None], torque[None], ATTITUDE_THETA)[0][0]
        fd = numeric_jacobian(
            lambda w: euler_step(w, torque, ATTITUDE_THETA, 0.05, "rk4"), omega)
        assert max_rel_gap(jac, fd) <= 1e-9


def reference_euler_jacobians(omega, torque, inertia, dt):
    """The folded attitude formulas per point, on numpy float64 scalars:
    ``c_i = dt * (I_l - I_j) / I_i``, ``s_i = dt / I_i`` and
    ``P_i = w_j * w_l`` for (i, j, l) = (x, y, z), (y, z, x), (z, x, y)."""
    wx, wy, wz = omega[0], omega[1], omega[2]
    ix, iy, iz = inertia[0], inertia[1], inertia[2]
    cx, cy, cz = dt * (iz - iy) / ix, dt * (ix - iz) / iy, dt * (iy - ix) / iz
    sx, sy, sz = dt / ix, dt / iy, dt / iz
    px, py, pz = wy * wz, wz * wx, wx * wy
    jac_x = np.array([
        [1.0, -cx * wz, -cx * wy],
        [-cy * wz, 1.0, -cy * wx],
        [-cz * wy, -cz * wx, 1.0],
    ])
    jac_theta = np.array([
        [(cx * px - torque[0] * sx) / ix, sx * px, -sx * px],
        [-sy * py, (cy * py - torque[1] * sy) / iy, sy * py],
        [sz * pz, -sz * pz, (cz * pz - torque[2] * sz) / iz],
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


def reference_row_differencing(model, states, inputs, theta, step=1e-6):
    """The fallback as a per-row reference: for each transition, a central
    difference of ``f`` on that one point per perturbed component, divided by
    the exact spacing, without numeric_jacobian."""
    def differences(fn, point):
        columns = []
        for j in range(point.size):
            h = step * max(1.0, abs(point[j]))
            plus, minus = point.copy(), point.copy()
            plus[j] += h
            minus[j] -= h
            columns.append((fn(plus) - fn(minus)) / (plus[j] - minus[j]))
        return np.stack(columns, axis=-1)

    jac_x = np.stack([differences(lambda v: model.f(v, u, theta), x)
                      for x, u in zip(states, inputs)])
    jac_theta = np.stack([differences(lambda v: model.f(x, u, v), theta)
                          for x, u in zip(states, inputs)])
    return jac_x, jac_theta


class TestRk4Fallback:
    def test_block_differences_equal_row_by_row_differencing(self):
        model = euler_attitude_model(dt=ATTITUDE_DT, integrator="rk4")
        rng = np.random.default_rng(44)
        states = rng.normal(scale=0.8, size=(400, 3))
        inputs = rng.normal(scale=0.1, size=(400, 3))
        for theta in rng.uniform(0.005, 1.0, size=(3, 3)):
            jac_x, jac_theta = reference_row_differencing(model, states, inputs, theta)
            got_x, got_theta = model.transition_jacobians(states, inputs, theta)
            assert np.array_equal(got_x, jac_x)
            assert np.array_equal(got_theta, jac_theta)

    # (horizon, rows of each f call): the twelve perturbed copies of the T-1
    # transitions, six of the state and six of theta, go in one call at the
    # rk4-fallback horizon, and one copy per call at the long-horizon one,
    # where two copies would pass numeric_jacobian's row budget
    @pytest.mark.parametrize("horizon,rows_per_call", [(200, [12 * 199]), (3200, [3199] * 12)])
    def test_stacked_fallback_equals_per_row_reference(self, horizon, rows_per_call):
        rk4 = euler_attitude_model(dt=ATTITUDE_DT, integrator="rk4")
        calls = []

        def counted_f(x, u, theta):
            calls.append(len(x))
            return rk4.f(x, u, theta)

        model = DynamicalModel(dims=rk4.dims, f=counted_f, g=rk4.g)
        rng = np.random.default_rng(45)
        states = rng.normal(scale=0.8, size=(horizon - 1, 3))
        inputs = rng.normal(scale=0.1, size=(horizon - 1, 3))
        jac_x, jac_theta = reference_row_differencing(rk4, states, inputs, ATTITUDE_THETA)
        got_x, got_theta = model.transition_jacobians(states, inputs, ATTITUDE_THETA)
        assert calls == rows_per_call
        assert np.array_equal(got_x, jac_x)
        assert np.array_equal(got_theta, jac_theta)


@pytest.mark.parametrize("factory", [euler_attitude_model, scalar_linear_model])
def test_constant_observation_jacobian_is_one_read_only_view(factory):
    # the identity repeated by stride 0, as np.broadcast_to gives it: nothing
    # is copied per row, and no caller can write into the shared matrix
    model = factory()
    n = model.dims.n_x
    for rows in (0, 1, 199):
        stack = model.jac_g_x_batch(np.zeros((rows, n)))
        reference = np.broadcast_to(np.eye(n), (rows, n, n))
        assert np.array_equal(stack, reference)
        assert stack.strides[0] == 0 and stack.dtype == reference.dtype
        assert not stack.flags.writeable


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

    @pytest.mark.parametrize("horizon", [2.5, 4.0, np.float64(4.0), True, "4", None])
    def test_a_horizon_that_is_not_an_integer_is_named(self, horizon):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        with pytest.raises(DimensionMismatch, match="horizon must be an integer >= 2"):
            generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, horizon, NoiseSpec())

    def test_numpy_integers_are_integers(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        numpy_ints = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, np.int64(6),
                                      NoiseSpec(seed=np.int64(9), **ATTITUDE_NOISE),
                                      dt=ATTITUDE_DT)
        plain = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, 6,
                                 NoiseSpec(seed=9, **ATTITUDE_NOISE), dt=ATTITUDE_DT)
        assert np.array_equal(numpy_ints.observations, plain.observations)

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
        # the three-term sum on Python floats, x, y, then z: no BLAS kernel
        # decides its bits, for a point or for a block
        rng = np.random.default_rng(5)
        block = rng.normal(size=(500, 3)) * 10.0 ** rng.uniform(-4, 1, (500, 1))
        ix, iy, iz = ATTITUDE_THETA.tolist()
        rows = [0.5 * ((wx * wx * ix + wy * wy * iy) + wz * wz * iz)
                for wx, wy, wz in block.tolist()]
        assert np.array_equal(rotational_energy(block, ATTITUDE_THETA), rows)
        assert [rotational_energy(omega, ATTITUDE_THETA) for omega in block] == rows

    def test_gradient_is_inertia_times_omega(self):
        omega = np.array([0.2, -0.1, 0.4])
        grad = rotational_energy_gradient(omega, ATTITUDE_THETA)
        assert np.array_equal(grad, ATTITUDE_THETA * omega)

    @pytest.mark.parametrize("omega", [np.zeros(2), np.zeros(4), np.zeros(1), np.zeros((5, 2)),
                                       np.zeros((3, 1)), 1.0])
    @pytest.mark.parametrize("function", [rotational_energy, rotational_energy_gradient])
    def test_an_omega_without_three_components_is_named(self, function, omega):
        # in the gradient, (1,) and (3, 1) would broadcast against the inertia silently
        shape = re.escape(str(np.shape(omega)))
        with pytest.raises(DimensionMismatch, match=rf"omega must have shape .*{shape}"):
            function(omega, ATTITUDE_THETA)

    def test_torque_free_drift_is_tiny(self):
        model = euler_attitude_model(dt=ATTITUDE_DT)
        trajectory = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                             np.zeros((50, 3)))
        start = rotational_energy(trajectory.states[0], ATTITUDE_THETA)
        end = rotational_energy(trajectory.states[-1], ATTITUDE_THETA)
        assert abs(end - start) / start < 1e-4

    @pytest.mark.parametrize("inertia, error", [
        ([0.0, 1.0, 1.0], NonPositiveInertia), ([-1.0, 1.0, 1.0], NonPositiveInertia),
        ([np.nan, 1.0, 1.0], NonPositiveInertia), ([1.0, 1.0], DimensionMismatch)])
    def test_energy_term_refuses_a_bad_inertia_when_built(self, inertia, error):
        # the term freezes its inertia: a bad one is named when the term is
        # built, not at its first evaluation inside a fit
        with pytest.raises(error):
            rotational_energy_term(inertia, reference=0.0)

    def test_energy_term_wiring(self):
        term = rotational_energy_term(ATTITUDE_THETA, reference=0.0, weight=2.0)
        omega = np.array([0.1, 0.2, 0.3])
        expected = rotational_energy(omega, ATTITUDE_THETA) ** 2
        assert term.value(omega, None) == pytest.approx(expected, rel=1e-14)
        assert term.weight == 2.0


class TestMomentumBalance:
    def test_forward_euler_rate_solves_momentum_balance(self):
        # with dt = 1 a forward-Euler step adds the angular acceleration once
        rng = np.random.default_rng(6)
        for _ in range(20):
            omega = rng.normal(size=3)
            torque = rng.normal(size=3)
            inertia = rng.uniform(0.1, 1.0, 3)
            rates = euler_step(omega, torque, inertia, 1.0, "forward_euler") - omega
            balance = inertia * rates + np.cross(omega, inertia * omega) - torque
            assert np.max(np.abs(balance)) <= 1e-12

    def test_forward_euler_rates_of_a_block_solve_momentum_balance(self):
        # the block branch runs the same formulas on columns: every row holds
        rng = np.random.default_rng(7)
        omega, torque = rng.normal(size=(2, 50, 3))
        inertia = rng.uniform(0.1, 1.0, (50, 3))
        rates = euler_step(omega, torque, inertia, 1.0, "forward_euler") - omega
        balance = inertia * rates + np.cross(omega, inertia * omega) - torque
        assert np.max(np.abs(balance)) <= 1e-12
