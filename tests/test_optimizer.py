"""ADAM updates and the identification loop."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (AdamState, Dataset, DimensionMismatch, DivergedRollout, EnergyConservation,
                  HistoryRecord, IdentificationRun, InvalidBox, LossSpec, LowerBarrier,
                  MsidError, NoiseSpec,
                  NonFiniteGradient, NonFiniteValue, NonPositiveInertia, OutsideDomain,
                  ParameterBox, PenaltySpec, StopReason, UpperBarrier, adam_step,
                  cost, euler_attitude_model, fd_gradient, generate_dataset, gradient,
                  gradient_naive, identify, numeric_jacobian, project_box, rollout,
                  scalar_linear_model)
from msid.optimizer import MAX_CONSECUTIVE_REJECTIONS, IdentifyOptions
from conftest import (ATTITUDE_DT, ATTITUDE_NOISE, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                      attitude_dataset, perturbed_init)


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
        options = IdentifyOptions(max_epochs=10, cost_tol=1e-12)
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
            max_epochs=5000, cost_tol=0.0)
        run = identify(model, dataset, spec, [1.0], [1.0], options)
        assert abs(run.theta_hat[0] - 2.0) <= 1e-4

    def test_stopping_soundness(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(max_epochs=300, cost_tol=1e-6, grad_tol=1e-9)
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
        options = IdentifyOptions(max_epochs=50)
        run = identify(model, dataset, spec, [1.5], [0.9], options)
        assert run.epochs <= 51
        for record in run.history[::7]:
            trajectory = rollout(model, record.x0, record.theta, dataset.inputs)
            again = cost(trajectory, dataset, spec, record.theta)
            assert again == pytest.approx(record.cost, rel=1e-12)

    def test_returns_best_cost_iterate(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(lr_theta=5e-2, max_epochs=200)
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
        options = IdentifyOptions(lr_theta=5e-2, box=box, max_epochs=100)
        run = identify(model, dataset, spec, [1.5], [1.0], options)
        for record in run.history[1:]:
            assert box[0][0] <= record.theta[0] <= box[1][0]

    def test_reproducibility_bit_identical(self):
        model, dataset = attitude_dataset(seed=5, nominal_inputs=True)
        spec = LossSpec.scaled_identity(3, 50)
        theta0, x00 = perturbed_init(5)
        options = IdentifyOptions(lr_x0=1e-6, max_epochs=40)
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
        options = IdentifyOptions(lr_x0=1e-6, max_epochs=800)
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
        options = IdentifyOptions(lr_theta=1e9, max_epochs=30)
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
        options = IdentifyOptions(lr_theta=0.08, max_epochs=80)
        with np.errstate(invalid="ignore", divide="ignore"):
            run = identify(model, dataset, spec, [0.85], [0.5], options)
        assert run.rejected_steps > 0
        assert np.all(np.isfinite([record.cost for record in run.history]))

    def test_out_of_domain_candidate_is_rejected_and_retried(self):
        # a large step drives an inertia below zero; the loop rejects that
        # candidate, halves the learning rates and still converges
        model, dataset = attitude_dataset(seed=1)
        spec = LossSpec.scaled_identity(3, len(dataset))
        options = IdentifyOptions(lr_theta=5e-2, lr_x0=1e-6, max_epochs=200)
        run = identify(model, dataset, spec, 1.2 * ATTITUDE_THETA, ATTITUDE_OMEGA0,
                       options)
        assert run.rejected_steps > 0
        assert np.linalg.norm(run.theta_hat - ATTITUDE_THETA) < 1e-3

    def test_out_of_domain_initial_candidate_raises_its_error(self):
        model, dataset = attitude_dataset(seed=1)
        spec = LossSpec.scaled_identity(3, len(dataset))
        with pytest.raises(NonPositiveInertia):
            identify(model, dataset, spec, [0.04, -0.04, 0.008], ATTITUDE_OMEGA0,
                     IdentifyOptions(max_epochs=5))

    def test_naive_gradient_method_matches_adjoint(self):
        # same loop driven by the double-sum gradient lands at the same
        # estimate (up to summation-order rounding)
        model, dataset, spec = scalar_fixture()
        runs = {}
        for method in ("adjoint", "naive"):
            options = IdentifyOptions(gradient_method=method, max_epochs=30)
            runs[method] = identify(model, dataset, spec, [1.6], [1.0], options)
        assert abs(runs["adjoint"].theta_hat[0]
                   - runs["naive"].theta_hat[0]) <= 1e-9

    def test_grad_norm_is_concatenated_euclidean(self):
        model, dataset, spec = scalar_fixture()
        options = IdentifyOptions(max_epochs=1)
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
            if epoch >= options.max_epochs:
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
        options = IdentifyOptions(lr_theta=5e-2, lr_x0=1e-6, max_epochs=200)
        run = self.check(1.2 * ATTITUDE_THETA, options)
        assert run.rejected_steps >= 1

    def test_box_clamps_theta_only(self):
        # the x0 components lie below every lower bound, so a box that also
        # clamped x0 would move them
        box = (np.array([0.0405, 0.03, 0.007]), np.array([0.06, 0.0402, 0.0085]))
        options = IdentifyOptions(lr_theta=2e-3, lr_x0=1e-6, box=box, max_epochs=200)
        run = self.check(np.array([0.045, 0.038, 0.0082]), options)
        thetas = np.array([record.theta for record in run.history])
        assert np.any(thetas == box[0]) and np.any(thetas == box[1])


def restore_and_retry_reference(model, dataset, spec, theta0, x0, options):
    """The identification loop as it was written before the accept-or-retry
    step: one loop around every evaluation, whose rejections restore the
    previous candidate and ADAM state from a saved triple."""
    n_theta, n_x = model.dims.n_theta, model.dims.n_x
    theta = np.array(theta0, dtype=float)
    x0 = np.array(x0, dtype=float)
    box = None
    if options.box is not None:
        box = tuple(np.asarray(bound, dtype=float) for bound in options.box)
        project_box(theta, *box)

    def evaluate(theta, x0):
        if options.gradient_method == "fd":
            return fd_gradient(model, x0, theta, dataset, spec, step=options.fd_step)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        if options.gradient_method == "naive":
            return gradient_naive(model, trajectory, dataset, spec, theta)
        return gradient(model, trajectory, dataset, spec, theta)

    p = np.concatenate([theta, x0])
    lr = np.concatenate([np.full(n_theta, options.lr_theta), np.full(n_x, options.lr_x0)])
    adam = AdamState.fresh(p.size, lr, options.beta1, options.beta2, options.eps)
    history = []
    previous = None
    rejected = 0
    consecutive = 0
    epoch = 0
    while True:
        try:
            report = evaluate(p[:n_theta], p[n_theta:])
        except (NonFiniteValue, OutsideDomain) as exc:
            rejected += 1
            consecutive += 1
            if previous is None:
                if isinstance(exc, OutsideDomain):
                    raise
                raise DivergedRollout(
                    "rollout diverged at the initial candidate", epoch=epoch)
            if consecutive >= MAX_CONSECUTIVE_REJECTIONS:
                raise DivergedRollout(
                    f"{consecutive} consecutive rejected steps", epoch=epoch)
            p, adam, grad = previous
            adam = replace(adam, lr=adam.lr / 2.0)
        else:
            consecutive = 0
            grad_theta, grad_x0 = report.grad_theta, report.grad_x0
            grad = np.concatenate([grad_theta, grad_x0])
            grad_norm = math.sqrt(float(grad_theta @ grad_theta) + float(grad_x0 @ grad_x0))
            history.append(HistoryRecord(epoch=epoch, cost=report.cost,
                                         grad_norm=grad_norm,
                                         theta=p[:n_theta].copy(), x0=p[n_theta:].copy()))
            if options.cost_tol > 0.0 and report.cost < options.cost_tol:
                stop_reason = StopReason.COST_BELOW_TOL
                break
            if options.grad_tol > 0.0 and grad_norm < options.grad_tol:
                stop_reason = StopReason.GRAD_BELOW_TOL
                break
            if epoch >= options.max_epochs:
                stop_reason = StopReason.MAX_EPOCHS
                break
            epoch += 1
        previous = (p, adam, grad)
        p, adam = adam_step(adam, grad, p)
        if box is not None:
            p[:n_theta] = project_box(p[:n_theta], *box)
    return IdentificationRun(tuple(history), stop_reason, rejected_steps=rejected)


def outcome(fit):
    """What a fit leaves behind: its records, rejections and stop reason, or
    the type, message and epoch of the exception it raised."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            run = fit()
    except MsidError as exc:
        return type(exc), str(exc), getattr(exc, "epoch", None)
    rows = [(r.epoch, r.cost, r.grad_norm, r.theta.tobytes(), r.x0.tobytes())
            for r in run.history]
    return rows, run.rejected_steps, run.stop_reason


# theta0 relative to the truth, x0, options, and what the case must show:
# its stop reason, its number of rejections or the type of its exception;
# horizon 30, noise seed 1
MAX = StopReason.MAX_EPOCHS
REFERENCE_CASES = {
    "plain": (1.05, ATTITUDE_OMEGA0, dict(max_epochs=40), MAX),
    "three-rejections": (1.2, ATTITUDE_OMEGA0,
                         dict(lr_theta=5e-2, lr_x0=1e-6, max_epochs=40), 3),
    "box": (np.array([0.045, 0.038, 0.0082]) / ATTITUDE_THETA, ATTITUDE_OMEGA0,
            dict(lr_theta=2e-3, lr_x0=1e-6, max_epochs=40,
                 box=(np.array([0.0405, 0.03, 0.007]), np.array([0.06, 0.0402, 0.0085]))),
            MAX),
    "ten-rejections": (1.0, ATTITUDE_OMEGA0, dict(lr_theta=1e9, max_epochs=30),
                       DivergedRollout),
    "non-finite-initial": (1.0, np.full(3, 1e200), dict(max_epochs=5), DivergedRollout),
    "out-of-domain-initial": (np.array([1.0, -1.0, 1.0]), ATTITUDE_OMEGA0,
                              dict(max_epochs=5), NonPositiveInertia),
    "cost-tol": (1.05, ATTITUDE_OMEGA0, dict(max_epochs=40, cost_tol=3e-8),
                 StopReason.COST_BELOW_TOL),
    "grad-tol": (1.05, ATTITUDE_OMEGA0, dict(max_epochs=40, grad_tol=1e-4),
                 StopReason.GRAD_BELOW_TOL),
    "naive": (1.05, ATTITUDE_OMEGA0, dict(max_epochs=10, gradient_method="naive"), MAX),
    "fd": (1.05, ATTITUDE_OMEGA0, dict(max_epochs=10, gradient_method="fd"), MAX),
}


class TestAcceptOrRetryStep:
    """The epoch loop around one accept-or-retry step fits, rejects, stops
    and raises bit for bit as the restore-and-retry loop did."""

    @pytest.mark.parametrize("integrator", ["forward_euler", "rk4"])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_the_restore_and_retry_loop(self, integrator, case):
        model = euler_attitude_model(dt=ATTITUDE_DT, integrator=integrator)
        dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, 30,
                                   NoiseSpec(seed=1, **ATTITUDE_NOISE), dt=ATTITUDE_DT)
        spec = LossSpec.scaled_identity(3, len(dataset))
        scale, x0, fields, shows = REFERENCE_CASES[case]
        theta0, options = scale * ATTITUDE_THETA, IdentifyOptions(**fields)
        expected = outcome(lambda: restore_and_retry_reference(model, dataset, spec,
                                                                 theta0, x0, options))
        if isinstance(shows, StopReason):
            assert expected[2] is shows
        elif isinstance(shows, int):
            assert expected[1] == shows
        else:
            assert expected[0] is shows
        assert outcome(lambda: identify(model, dataset, spec, theta0, x0, options)) == expected


class TestValidation:
    def test_box_of_another_length_is_refused_by_name(self):
        model = euler_attitude_model()
        inputs = np.zeros((10, 3))
        dataset = Dataset(inputs, rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA,
                                          inputs).predictions)
        spec = LossSpec.scaled_identity(3, 10)
        for box in (([0.0, 0.0], [1.0, 1.0]), (np.zeros(4), np.ones(4))):
            options = IdentifyOptions(box=box)
            with pytest.raises(DimensionMismatch, match=r"box bounds must have shape \(3,\)"):
                identify(model, dataset, spec, ATTITUDE_THETA, ATTITUDE_OMEGA0, options)

    def test_options_with_array_bounds_compare_and_hash(self):
        # the bounds are kept as tuples of floats, however they were given
        arrays = IdentifyOptions(box=(np.zeros(3), np.ones(3)))
        lists = IdentifyOptions(box=([0, 0, 0], [1.0, 1.0, 1.0]))
        assert arrays == lists
        assert arrays != IdentifyOptions(box=(np.zeros(3), np.full(3, 2.0)))
        assert hash(arrays) == hash(lists)
        assert arrays.box == ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_max_epochs_at_least_one(self):
        with pytest.raises(ValueError):
            IdentifyOptions(max_epochs=0)

    def test_unknown_gradient_method(self):
        with pytest.raises(ValueError):
            IdentifyOptions(gradient_method="newton")

    @pytest.mark.parametrize("field", ["lr_theta", "lr_x0", "eps"])
    def test_non_finite_rate_fails_at_entry(self, field):
        with pytest.raises(ValueError, match=rf"{field} must lie in \(0, inf\)"):
            IdentifyOptions(**{field: np.nan})

    @pytest.mark.parametrize("fields,error,message", [
        pytest.param(dict(lr_theta=-1.0), ValueError, r"lr_theta must lie in \(0, inf\)",
                     id="negative-lr-theta"),
        pytest.param(dict(lr_x0=0.0), ValueError, "lr_x0 must lie in",
                     id="zero-lr-x0"),
        pytest.param(dict(cost_tol=None), ValueError, "cost_tol must be nonnegative",
                     id="none-cost-tol"),
        pytest.param(dict(lr_theta="0.1"), ValueError, "lr_theta must lie in",
                     id="string-lr-theta"),
        pytest.param(dict(eps=np.inf), ValueError, "eps must lie in",
                     id="infinite-eps"),
        pytest.param(dict(beta1=2.0), ValueError, r"beta1 must lie in \(0, 1\)", id="beta1"),
        pytest.param(dict(beta1=np.nan), ValueError, "beta1", id="nan-beta1"),
        pytest.param(dict(beta2=0.0), ValueError, "beta2", id="zero-beta2"),
        pytest.param(dict(beta2=1.0), ValueError, "beta2", id="unit-beta2"),
        pytest.param(dict(box=(1, 2, 3)), InvalidBox, "box must be a", id="box-triple"),
        pytest.param(dict(box=1.0), InvalidBox, "box must be a", id="box-number"),
        pytest.param(dict(box=(0.0, 1.0)), InvalidBox, "1-D", id="box-scalars"),
        pytest.param(dict(box=(np.zeros(3), np.ones(2))), InvalidBox, "equal-length",
                     id="box-unequal"),
        pytest.param(dict(box=([0.0, np.nan], [1.0, 1.0])), InvalidBox, "free of NaN",
                     id="box-nan"),
        pytest.param(dict(box=([0.0, 2.0], [1.0, 1.0])), InvalidBox, "lower <= upper",
                     id="box-order"),
    ])
    def test_options_are_checked_when_built(self, fields, error, message):
        with pytest.raises(error, match=message):
            IdentifyOptions(**fields)

    def test_adam_state_names_the_decay_rate(self):
        with pytest.raises(ValueError, match="beta2 must lie in"):
            AdamState.fresh(3, lr=0.01, beta2=1.5)

    @pytest.mark.parametrize("n", [-1, 1.5, 3.0, True, np.True_, "3", None])
    def test_adam_state_refuses_a_size_that_is_no_integer_at_least_zero(self, n):
        with pytest.raises(ValueError, match=r"n must be an integer >= 0, got"):
            AdamState.fresh(n, 0.1)

    def test_adam_state_takes_numpy_integer_sizes(self):
        for n in (np.int64(3), np.int32(0)):
            state = AdamState.fresh(n, 0.1)
            assert state.m.shape == state.v.shape == (int(n),)

    @pytest.mark.parametrize("build,message", [
        pytest.param(lambda: euler_attitude_model(dt=np.nan), "dt must be positive",
                     id="attitude-dt"),
        pytest.param(lambda: euler_attitude_model(dt=np.inf), "dt must be positive and finite",
                     id="attitude-dt-inf"),
        pytest.param(lambda: numeric_jacobian(lambda x: x, np.ones(2), step=np.nan),
                     "step must be positive", id="fd-step"),
        pytest.param(lambda: numeric_jacobian(lambda x: x, np.ones(2), step=np.inf),
                     "step must be positive and finite", id="fd-step-inf"),
        pytest.param(lambda: NoiseSpec(torque_std=np.nan), "nonnegative", id="torque-std"),
        pytest.param(lambda: NoiseSpec(obs_std=np.nan), "nonnegative", id="obs-std"),
        pytest.param(lambda: NoiseSpec(torque_std=np.inf), "torque_std must be finite",
                     id="torque-std-inf"),
        pytest.param(lambda: NoiseSpec(obs_std=np.inf), "obs_std must be finite",
                     id="obs-std-inf"),
        pytest.param(lambda: NoiseSpec(torque_mean=np.nan), "torque_mean must be finite",
                     id="torque-mean-nan"),
        pytest.param(lambda: NoiseSpec(torque_mean=-np.inf), "torque_mean must be finite",
                     id="torque-mean-inf"),
        pytest.param(lambda: NoiseSpec(torque_mean="0"), "torque_mean must be finite",
                     id="torque-mean-str"),
        pytest.param(lambda: NoiseSpec(seed=-1), "seed must be an integer >= 0",
                     id="negative-seed"),
        pytest.param(lambda: NoiseSpec(seed=1.5), "seed must be an integer", id="float-seed"),
        pytest.param(lambda: NoiseSpec(seed=None), "seed must be an integer", id="none-seed"),
        pytest.param(lambda: NoiseSpec(seed=True), "seed must be an integer", id="bool-seed"),
        pytest.param(lambda: IdentifyOptions(max_epochs=np.nan), "max_epochs",
                     id="max-epochs"),
        pytest.param(lambda: IdentifyOptions(max_epochs=np.inf), "integer",
                     id="max-epochs-inf"),
        pytest.param(lambda: IdentifyOptions(max_epochs=2.5), "integer",
                     id="float-max-epochs"),
        pytest.param(lambda: IdentifyOptions(max_epochs=True), "max_epochs must be an integer",
                     id="bool-max-epochs"),
        pytest.param(lambda: IdentifyOptions(max_epochs=np.True_),
                     "max_epochs must be an integer", id="numpy-bool-max-epochs"),
        pytest.param(lambda: IdentifyOptions(grad_tol=np.nan), "nonnegative",
                     id="grad-tol"),
        pytest.param(lambda: IdentifyOptions(cost_tol=np.nan), "nonnegative",
                     id="cost-tol"),
        pytest.param(lambda: IdentifyOptions(fd_step=np.nan), "fd_step", id="options-fd-step"),
        pytest.param(lambda: IdentifyOptions(fd_step=np.inf), "fd_step",
                     id="options-fd-step-inf"),
        pytest.param(lambda: IdentifyOptions(fd_step=-np.inf), "fd_step",
                     id="options-fd-step-minus-inf"),
        pytest.param(lambda: IdentifyOptions(fd_step=0.0), "fd_step", id="options-fd-step-zero"),
        pytest.param(lambda: IdentifyOptions(fd_step=-1e-6), "fd_step",
                     id="options-fd-step-negative"),
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
        pytest.param(lambda: Dataset(np.zeros((2, 1)), np.zeros((2, 1)), dt="a"),
                     "dt must be positive and finite", id="dataset-dt-str"),
        pytest.param(lambda: Dataset(np.zeros((2, 1)), np.zeros((2, 1)), dt=True),
                     "dt must be positive and finite", id="dataset-dt-bool"),
        pytest.param(lambda: numeric_jacobian(lambda x: x, np.ones(2), step="x"),
                     "step must be positive and finite", id="fd-step-str"),
        pytest.param(lambda: euler_attitude_model(dt="x"), "dt must be positive and finite",
                     id="attitude-dt-str"),
        pytest.param(lambda: euler_attitude_model(dt=True), "dt must be positive and finite",
                     id="attitude-dt-bool"),
        pytest.param(lambda: UpperBarrier(np.ones(2), alpha="x"),
                     "alpha must be positive and finite", id="upper-alpha-str"),
        pytest.param(lambda: LowerBarrier(np.ones(2), alpha="x"),
                     "alpha must be positive and finite", id="lower-alpha-str"),
        pytest.param(lambda: ParameterBox([0.0, 0.0], [1.0, 1.0], alpha="x"),
                     "alpha must be positive and finite", id="box-alpha-str"),
        pytest.param(lambda: PenaltySpec((UpperBarrier(np.ones(2), 1.0, weight="x"),)),
                     "weight must be finite and nonnegative", id="penalty-weight-str"),
        pytest.param(lambda: EnergyConservation(lambda x: x.sum(axis=-1), reference="a"),
                     "reference must be finite", id="energy-reference-str"),
    ])
    def test_nan_and_non_integer_arguments_are_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
