"""Gradient engine: hand examples, oracle agreement, structural properties."""

import numpy as np
import pytest

from msid import (Dataset, DimensionMismatch, GradientReport, LossSpec,
                  PenaltySpec, Trajectory, TrajectoryMismatch, UpperBarrier,
                  cost, fd_gradient, gamma_terms, gradient, gradient_naive,
                  prediction_error, rollout, scalar_linear_model)
from conftest import max_rel_gap, random_instance, report_gap


@pytest.fixture
def scalar_problem():
    """x[k+1] = 2 x[k], x0 = 1, measurements pinned at 1, T = 2."""
    model = scalar_linear_model()
    dataset = Dataset(np.zeros((2, 1)), np.array([[1.0], [1.0]]))
    theta = np.array([2.0])
    x0 = np.array([1.0])
    trajectory = rollout(model, x0, theta, dataset.inputs)
    spec = LossSpec.scaled_identity(1, 2)
    return model, trajectory, dataset, spec, theta, x0


class TestPredictionError:
    def test_zero_when_predictions_match(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((3, 1)), np.array([[1.0], [1.0], [1.0]]))
        trajectory = rollout(model, [1.0], [1.0], dataset.inputs)
        assert np.array_equal(prediction_error(trajectory, dataset),
                              np.zeros((3, 1)))

    def test_componentwise_subtraction(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((2, 1)), np.array([[0.5], [0.5]]))
        trajectory = rollout(model, [2.0], [1.0], dataset.inputs)
        assert np.allclose(prediction_error(trajectory, dataset), 1.5)

    def test_shape_mismatch(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((3, 1)), np.ones((3, 1)))
        trajectory = rollout(model, [1.0], [1.0], np.zeros((2, 1)))
        with pytest.raises(DimensionMismatch):
            prediction_error(trajectory, dataset)


class TestCost:
    def test_zero_error_zero_cost(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((3, 1)), np.ones((3, 1)))
        trajectory = rollout(model, [1.0], [1.0], dataset.inputs)
        spec = LossSpec.scaled_identity(1, 3)
        assert cost(trajectory, dataset, spec, np.array([1.0])) == 0.0

    def test_hand_arithmetic(self):
        # T=2, Q=I, e0=1, e1=2 -> C = (1/2)(1) + (1/2)(4) = 2.5
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((2, 1)), np.array([[0.0], [0.0]]))
        trajectory = rollout(model, [1.0], [2.0], dataset.inputs)
        spec = LossSpec.scaled_identity(1, 2)
        assert cost(trajectory, dataset, spec, np.array([2.0])) == pytest.approx(2.5, abs=1e-15)

    def test_constant_penalty_adds_weighted_sum(self):
        # as above plus lambda=0.1 and h = 3 per step -> C = 2.5 + 0.1*6 = 3.1
        class ConstantPenalty:
            depends_on_state = True
            weight = 0.1

            def value(self, x, theta):
                return np.full(np.shape(x)[:-1], 3.0)

            def grad_x(self, x, theta):
                return np.zeros_like(x)

            def grad_theta(self, x, theta):
                return np.zeros(np.shape(x)[:-1] + np.shape(theta))

        model = scalar_linear_model()
        dataset = Dataset(np.zeros((2, 1)), np.array([[0.0], [0.0]]))
        trajectory = rollout(model, [1.0], [2.0], dataset.inputs)
        spec = LossSpec(np.eye(1), 2, PenaltySpec((ConstantPenalty(),)))
        assert cost(trajectory, dataset, spec, np.array([2.0])) == pytest.approx(3.1, abs=1e-15)

    def test_q_asymmetric_by_rounding_is_symmetrized(self):
        a = np.random.default_rng(0).normal(size=(3, 3))
        q = a @ np.diag([1.0, 2.0, 3.0]) @ a.T
        assert not np.array_equal(q, q.T)
        spec = LossSpec(q, 2)
        assert np.array_equal(spec.Q, spec.Q.T)
        assert np.max(np.abs(spec.Q - q)) <= 1e-12 * np.max(np.abs(q))

    def test_q_must_be_psd(self):
        with pytest.raises(DimensionMismatch):
            LossSpec(np.array([[-1.0]]), 2)
        with pytest.raises(DimensionMismatch):
            LossSpec(np.array([[1.0, 0.5], [0.4, 1.0]]), 2)


class TestGammaTerms:
    def test_zero_error_all_zero(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((3, 1)), np.ones((3, 1)))
        trajectory = rollout(model, [1.0], [1.0], dataset.inputs)
        spec = LossSpec.scaled_identity(1, 3)
        gamma, big_gamma = gamma_terms(trajectory, dataset, spec,
                                       np.array([1.0]), model)
        assert np.array_equal(gamma, np.zeros((3, 1)))
        assert np.array_equal(big_gamma, np.zeros((3, 1)))

    def test_scalar_hand_value(self, scalar_problem):
        model, trajectory, dataset, spec, theta, _ = scalar_problem
        _, big_gamma = gamma_terms(trajectory, dataset, spec, theta, model)
        # e = [0, 1]; Gamma_k = (2/2) e_k
        assert np.allclose(big_gamma.ravel(), [0.0, 1.0])

    def test_match_local_loss_finite_differences(self):
        # seeds for Gamma/gamma equal FD of the per-step penalized local loss
        model, dataset, spec, theta, x0 = random_instance(21, penalty_kind="upper")
        trajectory = rollout(model, x0, theta, dataset.inputs)
        gamma, big_gamma = gamma_terms(trajectory, dataset, spec, theta, model)
        horizon = spec.horizon
        h = 1e-6

        def local_loss(k, x, th):
            error = model.g(x) - dataset.observations[k]
            value = float(error @ spec.Q @ error) / horizon
            return value + spec.penalty.step_value(x, th)

        for k in (0, horizon // 2, horizon - 1):
            x = trajectory.states[k]
            fd_x = np.array([
                (local_loss(k, x + h * e, theta) - local_loss(k, x - h * e, theta)) / (2 * h)
                for e in np.eye(x.size)])
            fd_th = np.array([
                (local_loss(k, x, theta + h * e) - local_loss(k, x, theta - h * e)) / (2 * h)
                for e in np.eye(theta.size)])
            assert max_rel_gap(big_gamma[k], fd_x) <= 1e-6
            assert max_rel_gap(gamma[k], fd_th) <= 1e-6 or np.max(np.abs(fd_th)) <= 1e-9


class TestGradient:
    def test_zero_residual_exactly_zero(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((4, 1)), np.full((4, 1), 2.0))
        trajectory = rollout(model, [2.0], [1.0], dataset.inputs)
        spec = LossSpec.scaled_identity(1, 4)
        report = gradient(model, trajectory, dataset, spec, np.array([1.0]))
        assert np.array_equal(report.grad_theta, [0.0])
        assert np.array_equal(report.grad_x0, [0.0])
        assert report.cost == 0.0

    def test_scalar_hand_chain_rule(self, scalar_problem):
        model, trajectory, dataset, spec, theta, _ = scalar_problem
        report = gradient(model, trajectory, dataset, spec, theta)
        assert report.cost == pytest.approx(0.5, abs=1e-15)
        assert report.grad_theta[0] == pytest.approx(1.0, abs=1e-12)
        assert report.grad_x0[0] == pytest.approx(2.0, abs=1e-12)

    def test_scalar_fd_oracle(self, scalar_problem):
        model, trajectory, dataset, spec, theta, x0 = scalar_problem
        report = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
        assert report.grad_theta[0] == pytest.approx(1.0, abs=1e-6)
        assert report.grad_x0[0] == pytest.approx(2.0, abs=1e-6)

    def test_trajectory_mismatch_detected(self, scalar_problem):
        model, trajectory, dataset, spec, theta, _ = scalar_problem
        with pytest.raises(TrajectoryMismatch):
            gradient(model, trajectory, dataset, spec, np.array([2.5]))

    def test_spot_check_covers_the_middle_step(self):
        model = scalar_linear_model()
        horizon = 20
        dataset = Dataset(np.zeros((horizon, 1)), np.ones((horizon, 1)))
        trajectory = rollout(model, [1.0], [0.9], dataset.inputs)
        states = trajectory.states.copy()
        states[horizon // 2 + 1] += 1e-3
        tampered = Trajectory(states, trajectory.predictions,
                              trajectory.parameters, trajectory.initial_state)
        spec = LossSpec.scaled_identity(1, horizon)
        with pytest.raises(TrajectoryMismatch, match=f"step {horizon // 2 + 1}"):
            gradient(model, tampered, dataset, spec, np.array([0.9]))

    def test_report_invariant_and_serialization(self, scalar_problem):
        model, trajectory, dataset, spec, theta, _ = scalar_problem
        report = gradient(model, trajectory, dataset, spec, theta)
        assert report.cost == pytest.approx(
            report.per_step_loss.sum() + report.penalty_total, rel=1e-12)
        payload = report.to_json_dict()
        assert set(payload) == {"cost", "grad_theta", "grad_x0", "penalty_total"}
        restored = GradientReport(cost=payload["cost"],
                                  grad_theta=np.array(payload["grad_theta"]),
                                  grad_x0=np.array(payload["grad_x0"]),
                                  per_step_loss=report.per_step_loss,
                                  penalty_total=payload["penalty_total"])
        assert restored.cost == report.cost


class TestOracleEquivalence:
    @pytest.mark.parametrize("penalty_kind",
                             [None, "energy", "upper", "lower", "box"])
    def test_three_paths_agree(self, penalty_kind):
        for seed in range(10):
            model, dataset, spec, theta, x0 = random_instance(
                1000 + seed, penalty_kind=penalty_kind)
            trajectory = rollout(model, x0, theta, dataset.inputs)
            adjoint = gradient(model, trajectory, dataset, spec, theta)
            naive = gradient_naive(model, trajectory, dataset, spec, theta)
            fd = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
            assert report_gap(adjoint, naive) <= 1e-12
            assert report_gap(adjoint, fd) <= 1e-6
            assert adjoint.cost == naive.cost == fd.cost

    def test_chain_application_count(self):
        model, dataset, spec, theta, x0 = random_instance(55)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        report = gradient(model, trajectory, dataset, spec, theta)
        assert report.chain_applications == spec.horizon - 1


class TestAttitudeFixture:
    def test_fd_agreement_at_perturbed_inertia(self):
        from conftest import attitude_dataset
        model, dataset = attitude_dataset(seed=3)
        spec = LossSpec.scaled_identity(3, 50)
        rng = np.random.default_rng(6)
        theta = np.array([0.0403, 0.0404, 0.0080]) * (1 + 0.2 * rng.uniform(-1, 1, 3))
        x0 = np.array([9.915e-6, -1.102e-3, 1.3179e-5])
        trajectory = rollout(model, x0, theta, dataset.inputs)
        adjoint = gradient(model, trajectory, dataset, spec, theta)
        fd = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
        assert report_gap(adjoint, fd) <= 1e-6

    def test_backward_pass_scales_linearly_not_quadratically(self):
        # median-of-3 wall times; the double-sum form should slow down far
        # faster than the backward pass when the horizon quadruples
        from msid.gradient import timed
        from conftest import attitude_dataset

        def measure(horizon):
            model, dataset = attitude_dataset(seed=5, horizon=horizon)
            spec = LossSpec.scaled_identity(3, horizon)
            theta = np.array([0.0403, 0.0404, 0.0080]) * 1.05
            x0 = np.array([9.915e-6, -1.102e-3, 1.3179e-5])
            trajectory = rollout(model, x0, theta, dataset.inputs)
            times = {"adjoint": [], "naive": []}
            for _ in range(3):
                _, t = timed(gradient, model, trajectory, dataset, spec, theta)
                times["adjoint"].append(t)
                _, t = timed(gradient_naive, model, trajectory, dataset, spec, theta)
                times["naive"].append(t)
            return {k: sorted(v)[1] for k, v in times.items()}

        small, large = measure(100), measure(400)
        naive_growth = large["naive"] / small["naive"]
        adjoint_growth = large["adjoint"] / small["adjoint"]
        assert naive_growth > 4.0  # quadratic scaling predicts ~16
        assert naive_growth > 2.0 * adjoint_growth


class TestStructuralProperties:
    def test_scaling_q_by_power_of_two_is_exact(self):
        model, dataset, spec, theta, x0 = random_instance(77)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        base = gradient(model, trajectory, dataset,
                        LossSpec(spec.Q, spec.horizon), theta)
        scaled = gradient(model, trajectory, dataset,
                          LossSpec(4.0 * spec.Q, spec.horizon), theta)
        assert np.array_equal(scaled.grad_theta, 4.0 * base.grad_theta)
        assert np.array_equal(scaled.grad_x0, 4.0 * base.grad_x0)
        assert scaled.cost == 4.0 * base.cost

    def test_locality_truncation_matches_zeroed_seeds(self):
        # Truncating the data equals zeroing the seeds of the dropped steps,
        # once the 1/T vs 1/T' normalization is accounted for.  The zeroed
        # variant below is an independent double-sum implementation.
        model, dataset, spec, theta, x0 = random_instance(88, horizon=16)
        horizon, short = spec.horizon, 9
        trajectory = rollout(model, x0, theta, dataset.inputs)
        _, big_gamma = gamma_terms(trajectory, dataset, spec, theta, model)
        big_gamma = big_gamma.copy()
        big_gamma[short:] = 0.0

        jac_x = [model.jac_f_x(trajectory.states[i], dataset.inputs[i], theta)
                 for i in range(horizon - 1)]
        jac_th = [model.jac_f_theta(trajectory.states[i], dataset.inputs[i], theta)
                  for i in range(horizon - 1)]
        grad_theta = np.zeros_like(theta)
        for k in range(1, horizon):
            pulled = big_gamma[k].copy()
            grad_theta = grad_theta + pulled @ jac_th[k - 1]
            for step in range(k - 1, 0, -1):
                pulled = pulled @ jac_x[step]
                grad_theta = grad_theta + pulled @ jac_th[step - 1]
        grad_x0 = big_gamma[0].copy()
        chain = np.eye(x0.size)
        for k in range(1, horizon):
            chain = jac_x[k - 1] @ chain
            grad_x0 = grad_x0 + big_gamma[k] @ chain

        truncated = gradient(model, rollout(model, x0, theta, dataset.inputs[:short]),
                             dataset.prefix(short),
                             LossSpec(spec.Q, short), theta)
        scale = short / horizon
        assert max_rel_gap(truncated.grad_theta * scale, grad_theta) <= 1e-12
        assert max_rel_gap(truncated.grad_x0 * scale, grad_x0) <= 1e-12

    def test_penalty_augmented_end_to_end(self):
        # Analytic gradient of the penalty-augmented cost equals FD even when
        # several heterogeneous terms are attached at once.
        model, dataset, spec, theta, x0 = random_instance(99, penalty_kind="energy")
        trajectory = rollout(model, x0, theta, dataset.inputs)
        extra = PenaltySpec(spec.penalty.terms + (
            UpperBarrier(bounds=np.abs(trajectory.states).max(axis=0) + 0.7,
                         alpha=0.6, weight=0.03),))
        spec = LossSpec(spec.Q, spec.horizon, extra)
        adjoint = gradient(model, trajectory, dataset, spec, theta)
        fd = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
        assert report_gap(adjoint, fd) <= 1e-6
