"""ADAM updates and the identification loop."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (AdamState, Dataset, DivergedRollout, HistoryRecord,
                  IdentificationRun, LossSpec, NoiseSpec, NonFiniteGradient,
                  NonFiniteValue, NonPositiveInertia, OutsideDomain, ParameterBox,
                  PenaltySpec, StoppingCriteria, StopReason, UpperBarrier, adam_step,
                  cost, euler_attitude_model, gradient, identify, numeric_jacobian,
                  project_box, rollout, scalar_linear_model)
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

    def test_vector_lr_steps_each_component_at_its_own_rate(self):
        grad, params = np.array([0.5, -2.0]), np.array([1.0, 1.0])
        vector, _ = adam_step(AdamState.fresh(2, lr=[0.01, 1e-4]), grad, params)
        for i, lr in enumerate([0.01, 1e-4]):
            alone, _ = adam_step(AdamState.fresh(1, lr=lr), grad[i:i + 1], params[i:i + 1])
            assert vector[i] == alone[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("vector", [False, True])
    def test_rejects_learning_rate_not_finite_and_positive(self, bad, vector):
        with pytest.raises(ValueError):
            AdamState.fresh(3, lr=[0.01, bad, 0.01] if vector else bad)

    def test_rejects_nan_eps(self):
        with pytest.raises(ValueError):
            AdamState.fresh(3, lr=0.01, eps=np.nan)

    def test_rejects_lr_of_wrong_length(self):
        with pytest.raises(ValueError):
            AdamState.fresh(3, lr=[0.01, 0.01])


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
        assert run.best_record.cost == best
        assert np.array_equal(run.theta_hat, run.best_record.theta)
        assert np.array_equal(run.x0_hat, run.best_record.x0)

    def test_best_record_is_the_first_lowest_cost(self):
        history = tuple(HistoryRecord(epoch=k, cost=value, grad_norm=1.0,
                                      theta=np.array([float(k)]), x0=np.array([-float(k)]))
                        for k, value in enumerate([3.0, 1.0, 2.0, 1.0]))
        run = IdentificationRun(history=history, stop_reason=StopReason.MAX_EPOCHS)
        assert run.best_record is history[1]
        assert np.array_equal(run.theta_hat, [1.0]) and np.array_equal(run.x0_hat, [-1.0])

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
        options = IdentifyOptions(lr_x0=1e-6,
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
            jac_f_x_batch=lambda s, u, th: np.full((len(s), 1, 1), th[0]),
            jac_f_theta_batch=lambda s, u, th: (
                s - 0.5 / np.sqrt(1.0 - th[0]))[:, :, None])
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


def two_state_reference(model, dataset, spec, theta, x0, options):
    """The identification loop with one ADAM state for theta and one for x0:
    a rejection restores both and halves both rates, and the box clamps
    theta only.  Returns the history rows (cost, grad_norm, theta, x0) and
    the number of rejected steps; runs to ``max_epochs``."""
    adam_theta = AdamState.fresh(theta.size, options.lr_theta, options.beta1,
                                 options.beta2, options.eps)
    adam_x0 = AdamState.fresh(x0.size, options.lr_x0, options.beta1,
                              options.beta2, options.eps)
    rows, rejected, epoch = [], 0, 0
    while True:
        try:
            report = gradient(model, rollout(model, x0, theta, dataset.inputs),
                              dataset, spec, theta)
        except (NonFiniteValue, OutsideDomain):
            rejected += 1
            theta, x0, adam_theta, adam_x0, grad_theta, grad_x0 = previous
            adam_theta = replace(adam_theta, lr=adam_theta.lr / 2.0)
            adam_x0 = replace(adam_x0, lr=adam_x0.lr / 2.0)
        else:
            grad_theta, grad_x0 = report.grad_theta, report.grad_x0
            grad_norm = np.sqrt(float(grad_theta @ grad_theta) + float(grad_x0 @ grad_x0))
            rows.append((report.cost, grad_norm, theta.copy(), x0.copy()))
            if epoch >= options.stopping.max_epochs:
                return rows, rejected
            epoch += 1
        previous = (theta, x0, adam_theta, adam_x0, grad_theta, grad_x0)
        theta, adam_theta = adam_step(adam_theta, grad_theta, theta)
        if options.box is not None:
            theta = project_box(theta, *options.box)
        x0, adam_x0 = adam_step(adam_x0, grad_x0, x0)


class TestOneAdamState:
    """One ADAM state over p = (theta, x0) runs the two-state loop bit for bit."""

    def check(self, theta0, options):
        model, dataset = attitude_dataset(seed=1)
        spec = LossSpec.scaled_identity(3, len(dataset))
        run = identify(model, dataset, spec, theta0, ATTITUDE_OMEGA0, options)
        rows, rejected = two_state_reference(model, dataset, spec, theta0,
                                             ATTITUDE_OMEGA0, options)
        assert run.rejected_steps == rejected
        assert len(run.history) == len(rows)
        for record, (cost_, grad_norm, theta, x0) in zip(run.history, rows):
            assert record.cost == cost_ and record.grad_norm == grad_norm
            assert np.array_equal(record.theta, theta) and np.array_equal(record.x0, x0)
        best = min(rows, key=lambda row: row[0])
        assert np.array_equal(run.theta_hat, best[2]) and np.array_equal(run.x0_hat, best[3])
        return run

    def test_rejections_halve_both_rates(self):
        options = IdentifyOptions(lr_theta=5e-2, lr_x0=1e-6,
                                  stopping=StoppingCriteria(max_epochs=200))
        run = self.check(1.2 * ATTITUDE_THETA, options)
        assert run.rejected_steps >= 1

    def test_box_clamps_theta_only(self):
        # the x0 components lie below every lower bound, so a box that also
        # clamped x0 would move them
        box = (np.array([0.0405, 0.03, 0.007]), np.array([0.06, 0.0402, 0.0085]))
        options = IdentifyOptions(lr_theta=2e-3, lr_x0=1e-6, box=box,
                                  stopping=StoppingCriteria(max_epochs=200))
        run = self.check(np.array([0.045, 0.038, 0.0082]), options)
        thetas = np.array([record.theta for record in run.history])
        assert np.any(thetas == box[0]) and np.any(thetas == box[1])


class TestValidation:
    def test_max_epochs_at_least_one(self):
        with pytest.raises(ValueError):
            StoppingCriteria(max_epochs=0)

    def test_unknown_gradient_method(self):
        with pytest.raises(ValueError):
            IdentifyOptions(gradient_method="newton")

    @pytest.mark.parametrize("field", ["lr_theta", "lr_x0", "eps"])
    def test_non_finite_rate_fails_at_entry(self, field):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(**{field: np.nan})
        with pytest.raises(ValueError, match="finite and positive"):
            identify(model, dataset, spec, [1.5], [1.0], options)

    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: euler_attitude_model(dt=np.nan), "dt must be positive",
                     id="attitude-dt"),
        pytest.param(lambda: numeric_jacobian(lambda x: x, np.ones(2), step=np.nan),
                     "step must be positive", id="fd-step"),
        pytest.param(lambda: NoiseSpec(torque_std=np.nan), "nonnegative", id="torque-std"),
        pytest.param(lambda: NoiseSpec(obs_std=np.nan), "nonnegative", id="obs-std"),
        pytest.param(lambda: StoppingCriteria(max_epochs=np.nan), "max_epochs",
                     id="max-epochs"),
        pytest.param(lambda: StoppingCriteria(10, grad_tol=np.nan), "nonnegative",
                     id="grad-tol"),
        pytest.param(lambda: StoppingCriteria(10, cost_tol=np.nan), "nonnegative",
                     id="cost-tol"),
        pytest.param(lambda: PenaltySpec((UpperBarrier(np.ones(2), 1.0, weight=np.nan),)),
                     "nonnegative", id="penalty-weight"),
        pytest.param(lambda: ParameterBox([np.nan, 0.0], [1.0, 1.0], alpha=1.0), "NaN",
                     id="box-bound"),
        pytest.param(lambda: project_box(np.zeros(2), [0.0, 0.0], [1.0, np.nan]), "NaN",
                     id="projection-bound"),
        pytest.param(lambda: LossSpec(np.diag([1.0, np.inf]), 5), "Q must be finite",
                     id="inf-Q"),
        pytest.param(lambda: LossSpec(np.array([[1.0, np.nan], [0.0, 1.0]]), 5),
                     "Q must be finite", id="nan-Q"),
        pytest.param(lambda: LossSpec(np.eye(2), 2.5), "integer", id="float-horizon"),
    ])
    def test_nan_and_non_integer_arguments_are_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
