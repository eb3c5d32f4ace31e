"""ADAM updates and the identification loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (AdamState, Dataset, DivergedRollout, LossSpec,
                  NonFiniteGradient, NonPositiveInertia, StoppingCriteria,
                  StopReason, adam_step, cost, identify, rollout,
                  scalar_linear_model)
from msid.optimizer import IdentifyOptions
from conftest import (ATTITUDE_OMEGA0, ATTITUDE_THETA, attitude_dataset,
                      perturbed_init)


class TestAdamStep:
    def test_zero_gradient_no_move(self):
        state = AdamState.fresh(3, lr=0.1)
        params = np.array([1.0, -2.0, 3.0])
        new_params, new_state = adam_step(state, np.zeros(3), params)
        assert np.array_equal(new_params, params)
        assert new_state.t == 1

    @given(st.floats(-5.0, 5.0).filter(lambda g: abs(g) > 1e-6))
    @settings(max_examples=40, deadline=None)
    def test_first_step_is_bias_corrected(self, grad):
        # fresh state: m_hat = g, v_hat = g^2, so the step is about -lr*sign(g)
        lr, eps = 0.01, 1e-8
        state = AdamState.fresh(1, lr=lr, eps=eps)
        new_params, _ = adam_step(state, np.array([grad]), np.array([0.0]))
        expected = -lr * grad / (abs(grad) + eps)
        assert new_params[0] == pytest.approx(expected, rel=1e-10)

    def test_first_step_hand_value(self):
        state = AdamState.fresh(1, lr=0.01)
        new_params, _ = adam_step(state, np.array([0.5]), np.array([0.0]))
        assert new_params[0] == pytest.approx(-0.01 * 0.5 / (0.5 + 1e-8), rel=1e-12)

    def test_rejects_non_finite_gradient(self):
        state = AdamState.fresh(1, lr=0.01)
        with pytest.raises(NonFiniteGradient):
            adam_step(state, np.array([np.nan]), np.array([0.0]))

    def test_scalar_quadratic_converges(self):
        # oracle run: minimize f(p) = p^2 with exact gradient 2p
        state = AdamState.fresh(1, lr=0.01)
        params = np.array([1.0])
        for _ in range(1000):
            params, state = adam_step(state, 2.0 * params, params)
        assert abs(params[0]) < 1e-2


def scalar_fixture(theta_true=2.0, horizon=12):
    model = scalar_linear_model()
    inputs = np.zeros((horizon, 1))
    truth = rollout(model, [1.0], [theta_true], inputs)
    dataset = Dataset(inputs, truth.predictions.copy())
    spec = LossSpec.scaled_identity(1, horizon)
    return model, dataset, spec


class TestIdentify:
    def test_stationary_at_global_minimum(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(
            stopping=StoppingCriteria(max_epochs=10, cost_tol=1e-12))
        run = identify(model, dataset, spec, [2.0], [1.0], options)
        assert run.stop_reason is StopReason.COST_BELOW_TOL
        assert run.epochs <= 2
        assert abs(run.theta_hat[0] - 2.0) <= 1e-9
        assert abs(run.x0_hat[0] - 1.0) <= 1e-9

    def test_scalar_recovery_from_offset(self):
        # theta=2 from theta0=1; this scalar instance is benign (verified by
        # a grid scan of the cost, which is monotone between 1 and 2).
        model, dataset, spec = scalar_fixture(theta_true=2.0, horizon=6)
        grid = np.linspace(1.0, 2.0, 41)
        values = [cost(rollout(model, [1.0], [g], dataset.inputs), dataset, spec, [g])
                  for g in grid]
        assert all(earlier >= later for earlier, later in zip(values, values[1:]))
        options = IdentifyOptions(
            lr_theta=1e-2, lr_x0=1e-6,
            stopping=StoppingCriteria(max_epochs=5000, cost_tol=0.0))
        run = identify(model, dataset, spec, [1.0], [1.0], options)
        assert abs(run.theta_hat[0] - 2.0) <= 1e-4

    def test_stopping_soundness(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(
            stopping=StoppingCriteria(max_epochs=300, cost_tol=1e-6, grad_tol=1e-9))
        run = identify(model, dataset, spec, [1.7], [1.0], options)
        conditions = {
            StopReason.COST_BELOW_TOL: lambda r: r.cost < 1e-6,
            StopReason.GRAD_BELOW_TOL: lambda r: r.grad_norm < 1e-9,
            StopReason.MAX_EPOCHS: lambda r: r.epoch >= 300,
        }
        final = run.history[-1]
        assert conditions[run.stop_reason](final)
        for record in run.history[:-1]:
            assert not any(check(record) for check in conditions.values())

    def test_history_integrity(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(stopping=StoppingCriteria(max_epochs=50))
        run = identify(model, dataset, spec, [1.5], [0.9], options)
        assert run.epochs <= 51
        for record in run.history[::7]:
            trajectory = rollout(model, record.x0, record.theta, dataset.inputs)
            again = cost(trajectory, dataset, spec, record.theta)
            assert again == pytest.approx(record.cost, rel=1e-12)

    def test_returns_best_cost_iterate(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(lr_theta=5e-2,
                                  stopping=StoppingCriteria(max_epochs=200))
        run = identify(model, dataset, spec, [1.2], [1.0], options)
        best = min(record.cost for record in run.history)
        returned = rollout(model, run.x0_hat, run.theta_hat, dataset.inputs)
        assert cost(returned, dataset, spec, run.theta_hat) == pytest.approx(
            best, rel=1e-12)

    def test_projection_keeps_iterates_feasible(self):
        model, dataset, spec = scalar_fixture()
        box = (np.array([1.4]), np.array([1.9]))
        options = IdentifyOptions(lr_theta=5e-2, box=box,
                                  stopping=StoppingCriteria(max_epochs=100))
        run = identify(model, dataset, spec, [1.5], [1.0], options)
        for record in run.history[1:]:
            assert box[0][0] <= record.theta[0] <= box[1][0]

    def test_reproducibility_bit_identical(self):
        model, dataset = attitude_dataset(seed=5, nominal_inputs=True)
        spec = LossSpec.scaled_identity(3, 50)
        theta0, x00 = perturbed_init(5)
        options = IdentifyOptions(lr_x0=1e-6, seed=5,
                                  stopping=StoppingCriteria(max_epochs=40))
        first = identify(model, dataset, spec, theta0, x00, options)
        second = identify(model, dataset, spec, theta0, x00, options)
        assert first.stop_reason == second.stop_reason
        assert np.array_equal(first.theta_hat, second.theta_hat)
        assert np.array_equal(first.x0_hat, second.x0_hat)
        for a, b in zip(first.history, second.history):
            assert a.cost == b.cost and np.array_equal(a.theta, b.theta)

    def test_descent_trend_on_noisy_fixture(self):
        model, dataset = attitude_dataset(seed=2, nominal_inputs=True)
        spec = LossSpec.scaled_identity(3, 50)
        theta0, x00 = perturbed_init(2)
        options = IdentifyOptions(lr_x0=1e-6,
                                  stopping=StoppingCriteria(max_epochs=800))
        run = identify(model, dataset, spec, theta0, x00, options)
        costs = np.array([record.cost for record in run.history])
        tenth = max(1, len(costs) // 10)
        assert costs[-1] < costs[0]
        assert costs[-tenth:].min() <= costs[:tenth].min()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_rejection_then_abort(self):
        # an enormous learning rate throws the iterate into overflow; halving
        # ten times in a row is not enough to recover, so the run aborts.
        model, dataset, spec = scalar_fixture(theta_true=3.0, horizon=40)
        options = IdentifyOptions(lr_theta=1e9,
                                  stopping=StoppingCriteria(max_epochs=30))
        with pytest.raises(DivergedRollout):
            identify(model, dataset, spec, [3.1], [1.0], options)

    def test_divergence_recovery_counts_rejections(self):
        # dynamics with a hard pole at theta = 1: stepping across it makes the
        # rollout non-finite, the step is rejected, and the halved learning
        # rate lets the run recover and finish.
        from msid import DynamicalModel, ModelDims

        def f(x, u, th):
            return np.array([x[0] * th[0] + np.sqrt(1.0 - th[0])])

        model = DynamicalModel(
            dims=ModelDims(1, 1, 1, 1), f=f, g=lambda x: x,
            jac_f_x=lambda x, u, th: np.array([[th[0]]]),
            jac_f_theta=lambda x, u, th: np.array(
                [[x[0] - 0.5 / np.sqrt(1.0 - th[0])]]))
        inputs = np.zeros((10, 1))
        truth = rollout(model, [0.5], [0.99], inputs)
        dataset = Dataset(inputs, truth.predictions.copy())
        spec = LossSpec.scaled_identity(1, 10)
        options = IdentifyOptions(lr_theta=0.08,
                                  stopping=StoppingCriteria(max_epochs=80))
        with np.errstate(invalid="ignore", divide="ignore"):
            run = identify(model, dataset, spec, [0.85], [0.5], options)
        assert run.rejected_steps > 0
        assert np.all(np.isfinite([record.cost for record in run.history]))

    def test_out_of_domain_candidate_is_rejected_and_retried(self):
        # a large step drives an inertia below zero; the loop rejects that
        # candidate, halves the learning rates and still converges
        model, dataset = attitude_dataset(seed=1)
        spec = LossSpec.scaled_identity(3, len(dataset))
        options = IdentifyOptions(lr_theta=5e-2, lr_x0=1e-6,
                                  stopping=StoppingCriteria(max_epochs=200))
        run = identify(model, dataset, spec, 1.2 * ATTITUDE_THETA, ATTITUDE_OMEGA0,
                       options)
        assert run.rejected_steps > 0
        assert np.linalg.norm(run.theta_hat - ATTITUDE_THETA) < 1e-3

    def test_out_of_domain_initial_candidate_raises_its_error(self):
        model, dataset = attitude_dataset(seed=1)
        spec = LossSpec.scaled_identity(3, len(dataset))
        with pytest.raises(NonPositiveInertia):
            identify(model, dataset, spec, [0.04, -0.04, 0.008], ATTITUDE_OMEGA0,
                     IdentifyOptions(stopping=StoppingCriteria(max_epochs=5)))

    def test_naive_gradient_method_matches_adjoint(self):
        # same loop driven by the double-sum gradient lands at the same
        # estimate (up to summation-order rounding)
        model, dataset, spec = scalar_fixture()
        runs = {}
        for method in ("adjoint", "naive"):
            options = IdentifyOptions(gradient_method=method,
                                      stopping=StoppingCriteria(max_epochs=30))
            runs[method] = identify(model, dataset, spec, [1.6], [1.0], options)
        assert abs(runs["adjoint"].theta_hat[0]
                   - runs["naive"].theta_hat[0]) <= 1e-9

    def test_grad_norm_is_concatenated_euclidean(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(stopping=StoppingCriteria(max_epochs=1))
        run = identify(model, dataset, spec, [1.5], [0.8], options)
        from msid import gradient
        record = run.history[0]
        trajectory = rollout(model, record.x0, record.theta, dataset.inputs)
        report = gradient(model, trajectory, dataset, spec, record.theta)
        expected = np.sqrt(report.grad_theta @ report.grad_theta
                           + report.grad_x0 @ report.grad_x0)
        assert record.grad_norm == pytest.approx(expected, rel=1e-12)


class TestValidation:
    def test_max_epochs_at_least_one(self):
        with pytest.raises(ValueError):
            StoppingCriteria(max_epochs=0)

    def test_unknown_gradient_method(self):
        with pytest.raises(ValueError):
            IdentifyOptions(gradient_method="newton")
