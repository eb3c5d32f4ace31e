"""Gradient engine: hand examples, oracle agreement, structural properties."""

import dataclasses
import time

import numpy as np
import pytest

from msid import (Dataset, DimensionMismatch, EnergyConservation, GradientReport,
                  LossSpec, NoiseSpec, NonFiniteValue, PenaltySpec, SparsityMask,
                  Trajectory, TrajectoryMismatch, UpperBarrier,
                  cost, euler_attitude_model, fd_gradient, gamma_terms,
                  generate_dataset, gradient, gradient_naive, prediction_error, rollout,
                  rotational_energy, rotational_energy_term, scalar_linear_model)
from msid.gradient import SCAN_MAX_STATES, SCAN_MIN_HORIZON
from conftest import (ATTITUDE_OMEGA0, ATTITUDE_THETA, attitude_dataset, max_rel_gap,
                      random_instance, reference_adjoint_loop, report_gap)


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

    @pytest.mark.parametrize("method", [gradient, gradient_naive])
    def test_non_finite_cost_raises(self, method):
        # an energy of 1e160 squares to an infinite penalty while its zero
        # gradient keeps every seed finite: only the cost is not finite
        model, dataset = attitude_dataset(seed=1)
        penalty = PenaltySpec((EnergyConservation(
            lambda x: np.full(x.shape[:-1], 1e160), 0.0,
            energy_grad=lambda x: np.zeros_like(x)),))
        spec = LossSpec.scaled_identity(3, len(dataset), penalty=penalty)
        trajectory = rollout(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, dataset.inputs)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            method(model, trajectory, dataset, spec, ATTITUDE_THETA)


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
        from conftest import attitude_dataset

        def measure(horizon):
            model, dataset = attitude_dataset(seed=5, horizon=horizon)
            spec = LossSpec.scaled_identity(3, horizon)
            theta = np.array([0.0403, 0.0404, 0.0080]) * 1.05
            x0 = np.array([9.915e-6, -1.102e-3, 1.3179e-5])
            trajectory = rollout(model, x0, theta, dataset.inputs)
            times = {"adjoint": [], "naive": []}
            for _ in range(3):
                for name, fn in (("adjoint", gradient), ("naive", gradient_naive)):
                    start = time.perf_counter()
                    fn(model, trajectory, dataset, spec, theta)
                    times[name].append(time.perf_counter() - start)
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

        states, inputs = trajectory.states[:horizon - 1], dataset.inputs[:horizon - 1]
        jac_x = model.jac_f_x_batch(states, inputs, theta)
        jac_th = model.jac_f_theta_batch(states, inputs, theta)
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


def reference_fd_gradient(model, x0, theta, dataset, spec, step=1e-6):
    """The per-component loops the single ``numeric_jacobian`` call replaced."""
    def evaluate(th, x):
        return cost(rollout(model, x, th, dataset.inputs), dataset, spec, th)

    grad_theta = np.empty_like(theta)
    for i in range(theta.size):
        h = step * max(1.0, abs(theta[i]))
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        grad_theta[i] = (evaluate(plus, x0) - evaluate(minus, x0)) / (plus[i] - minus[i])
    grad_x0 = np.empty_like(x0)
    for j in range(x0.size):
        h = step * max(1.0, abs(x0[j]))
        plus = x0.copy()
        plus[j] += h
        minus = x0.copy()
        minus[j] -= h
        grad_x0[j] = (evaluate(theta, plus) - evaluate(theta, minus)) / (plus[j] - minus[j])
    return grad_theta, grad_x0


class TestJacobianShapes:
    """A Jacobian written for one point but given in the batched form returns
    one matrix for the whole block, which a product would broadcast over
    every step into a wrong gradient; the gradient refuses it by name."""

    @pytest.mark.parametrize("field,per_point", [
        pytest.param("jac_f_x_batch", lambda s, u, th: np.array([[th[0]]]), id="jac_f_x"),
        pytest.param("jac_f_theta_batch", lambda s, u, th: np.array([[s[0]]]),
                     id="jac_f_theta"),
        pytest.param("jac_g_x_batch", lambda s: np.array([[1.0]]), id="jac_g_x"),
    ])
    @pytest.mark.parametrize("sparsity", [
        pytest.param(None, id="dense"),
        pytest.param(SparsityMask(np.ones((1, 1), dtype=int)), id="masked")])
    @pytest.mark.parametrize("method", [gradient, gradient_naive],
                             ids=["adjoint", "naive"])
    def test_one_matrix_for_a_block_is_refused(self, field, per_point, sparsity, method):
        model = dataclasses.replace(scalar_linear_model(), sparsity=sparsity,
                                    **{field: per_point})
        inputs = np.linspace(-0.5, 0.5, 20)[:, None]
        theta = np.array([0.9])
        trajectory = rollout(model, [1.0], theta, inputs)
        dataset = Dataset(inputs, trajectory.predictions + 0.1)
        with pytest.raises(DimensionMismatch, match=rf"{field} must be row-wise: gave shape"):
            method(model, trajectory, dataset, LossSpec.scaled_identity(1, 20), theta)


class TestFdGradientReference:
    @pytest.mark.parametrize("seed,penalty_kind", [(3, None), (4, "energy"), (5, "box")])
    def test_equals_per_component_loop(self, seed, penalty_kind):
        model, dataset, spec, theta, x0 = random_instance(seed, penalty_kind=penalty_kind)
        report = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
        grad_theta, grad_x0 = reference_fd_gradient(model, x0, theta, dataset, spec)
        assert np.array_equal(report.grad_theta, grad_theta)
        assert np.array_equal(report.grad_x0, grad_x0)


def masked_attitude_problem(penalty, horizon=50):
    from conftest import ATTITUDE_OMEGA0, ATTITUDE_THETA, attitude_dataset
    _, dataset = attitude_dataset(seed=3, horizon=horizon)
    theta = ATTITUDE_THETA * np.array([1.1, 0.93, 1.05])
    terms = ()
    if penalty:
        reference = float(rotational_energy(dataset.observations[0], ATTITUDE_THETA))
        terms = (rotational_energy_term(ATTITUDE_THETA, reference, weight=1.0),)
    spec = LossSpec.scaled_identity(3, len(dataset), penalty=PenaltySpec(terms) if terms else None)
    return dataset, spec, theta, ATTITUDE_OMEGA0


def with_full_mask(model):
    """``model`` with a mask of all ones: the masked path on the same Jacobians."""
    n_x = model.dims.n_x
    return dataclasses.replace(model, sparsity=SparsityMask(np.ones((n_x, n_x), dtype=int)))


class TestBackwardPass:
    @pytest.mark.parametrize("seed,penalty_kind",
                             [(11, None), (12, "energy"), (13, "upper"), (14, "box")])
    def test_dense_path_equals_step_by_step_loop(self, seed, penalty_kind):
        model, dataset, spec, theta, x0 = random_instance(seed, penalty_kind=penalty_kind)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        report = gradient(model, trajectory, dataset, spec, theta)
        grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
        assert np.array_equal(report.grad_theta, grad_theta)
        assert np.array_equal(report.grad_x0, grad_x0)

    @pytest.mark.parametrize("with_sparsity", [False, True])
    @pytest.mark.parametrize("penalty", [False, True])
    def test_attitude_paths_equal_step_by_step_loop(self, with_sparsity, penalty):
        model = euler_attitude_model(dt=0.1, with_sparsity=with_sparsity)
        # up to SCAN_MIN_HORIZON steps both paths run the loop, bit for bit
        for horizon in (50, SCAN_MIN_HORIZON):
            dataset, spec, theta, x0 = masked_attitude_problem(penalty, horizon)
            trajectory = rollout(model, x0, theta, dataset.inputs)
            report = gradient(model, trajectory, dataset, spec, theta)
            grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
            assert np.array_equal(report.grad_theta, grad_theta)
            assert np.array_equal(report.grad_x0, grad_x0)

    @pytest.mark.parametrize("penalty", [False, True])
    def test_masked_attitude_three_way_anchor(self, penalty):
        dense_model = euler_attitude_model(dt=0.1)
        masked_model = euler_attitude_model(dt=0.1, with_sparsity=True)
        # T=50 runs the loop, T=65 and T=3200 the chunked scan; the O(T^2)
        # double sum is left out at T=3200
        for horizon in (50, SCAN_MIN_HORIZON + 1, 3200):
            dataset, spec, theta, x0 = masked_attitude_problem(penalty, horizon)
            trajectory = rollout(masked_model, x0, theta, dataset.inputs)
            masked = gradient(masked_model, trajectory, dataset, spec, theta)
            dense = gradient(dense_model, trajectory, dataset, spec, theta)
            fd = fd_gradient(masked_model, x0, theta, dataset, spec, step=1e-6)
            assert report_gap(masked, dense) <= 1e-14
            if horizon < 3200:
                naive = gradient_naive(masked_model, trajectory, dataset, spec, theta)
                assert report_gap(masked, naive) <= 1e-10
            assert report_gap(masked, fd) <= 1e-5
            assert masked.chain_applications == len(dataset) - 1


class TestChunkedScan:
    """Above SCAN_MIN_HORIZON, with at most SCAN_MAX_STATES dense states, the
    backward recurrence runs as a chunked scan: equal to the loop to rounding."""

    @pytest.mark.parametrize("horizon", [SCAN_MIN_HORIZON + 1, 3200])
    @pytest.mark.parametrize("penalty_kind", [None, "energy", "upper"])
    @pytest.mark.parametrize("n_x", [1, 2, 4])
    def test_scan_equals_step_by_step_loop(self, n_x, penalty_kind, horizon):
        model, dataset, spec, theta, x0 = random_instance(
            40 + n_x, penalty_kind=penalty_kind, n_x=n_x, horizon=horizon)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        for model in (model, with_full_mask(model)):
            report = gradient(model, trajectory, dataset, spec, theta)
            grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
            assert max_rel_gap(report.grad_theta, grad_theta) <= 1e-12
            assert max_rel_gap(report.grad_x0, grad_x0) <= 1e-12
            assert report.chain_applications == horizon - 1

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="needs a long double wider than a double")
    def test_as_accurate_as_the_loop_on_an_expanding_chain(self):
        # the Jacobian chain of this instance grows by about 1e21 over the
        # horizon, and the scan and the loop differ by 1.3e-12; each is within
        # 1e-12 of the recurrence evaluated in long double
        horizon = 3200
        model, dataset, spec, theta, x0 = random_instance(
            24, penalty_kind="energy", n_x=4, horizon=horizon)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        _, big_gamma = gamma_terms(trajectory, dataset, spec, theta, model)
        jac_x = model.jac_f_x_batch(trajectory.states[:horizon - 1],
                                    dataset.inputs[:horizon - 1], theta)
        exact = big_gamma.astype(np.longdouble)
        for k in range(horizon - 1, 0, -1):
            exact[k - 1] += exact[k] @ jac_x[k - 1].astype(np.longdouble)
        report = gradient(model, trajectory, dataset, spec, theta)
        _, loop_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
        assert max_rel_gap(report.grad_x0, exact[0]) <= 1e-12
        assert max_rel_gap(loop_x0, exact[0]) <= 1e-12

    def test_large_state_stays_on_the_loop(self):
        model, dataset, spec, theta, x0 = random_instance(
            31, penalty_kind="energy", n_x=SCAN_MAX_STATES + 1, horizon=SCAN_MIN_HORIZON + 1)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        report = gradient(model, trajectory, dataset, spec, theta)
        grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
        assert np.array_equal(report.grad_theta, grad_theta)
        assert np.array_equal(report.grad_x0, grad_x0)

    def test_overflowing_transfer_products_fall_back_to_the_loop(self):
        # x[k+1] = 1e200 x[k] from x0 = 0: every state and every adjoint
        # but the first is zero, while the chunk products overflow
        horizon = SCAN_MIN_HORIZON + 1
        model = scalar_linear_model()
        observations = np.zeros((horizon, 1))
        observations[0] = 1.0
        dataset = Dataset(np.zeros((horizon, 1)), observations)
        theta = np.array([1e200])
        trajectory = rollout(model, [0.0], theta, dataset.inputs)
        for model in (model, with_full_mask(model)):
            report = gradient(model, trajectory, dataset,
                              LossSpec.scaled_identity(1, horizon), theta)
            assert np.array_equal(report.grad_theta, [0.0])
            assert np.array_equal(report.grad_x0, [-2.0 / horizon])

    def test_attitude_three_way_anchor(self):
        from conftest import ATTITUDE_OMEGA0, ATTITUDE_THETA, attitude_dataset
        model, dataset = attitude_dataset(seed=3, horizon=400)
        theta = ATTITUDE_THETA * np.array([1.1, 0.93, 1.05])
        spec = LossSpec.scaled_identity(3, len(dataset))
        trajectory = rollout(model, ATTITUDE_OMEGA0, theta, dataset.inputs)
        adjoint = gradient(model, trajectory, dataset, spec, theta)
        naive = gradient_naive(model, trajectory, dataset, spec, theta)
        fd = fd_gradient(model, ATTITUDE_OMEGA0, theta, dataset, spec, step=1e-6)
        assert report_gap(adjoint, naive) <= 1e-10
        assert report_gap(adjoint, fd) <= 1e-5


@pytest.mark.parametrize("penalty", [False, True])
def test_rk4_fallback_three_way_anchor(penalty):
    # the RK4 model has no analytic Jacobian of f: the adjoint pass runs on
    # the block central-difference fallback
    from conftest import ATTITUDE_NOISE, ATTITUDE_OMEGA0, ATTITUDE_THETA
    model = euler_attitude_model(dt=0.1, integrator="rk4")
    noise = NoiseSpec(seed=3, **ATTITUDE_NOISE)
    dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, 50, noise, dt=0.1)
    theta = ATTITUDE_THETA * np.array([1.1, 0.93, 1.05])
    x0 = ATTITUDE_OMEGA0
    penalty_spec = None
    if penalty:
        reference = float(rotational_energy(dataset.observations[0], ATTITUDE_THETA))
        # weighted so that the term moves the gradient by about 6%
        penalty_spec = PenaltySpec(
            (rotational_energy_term(ATTITUDE_THETA, reference, weight=1e5),))
    spec = LossSpec.scaled_identity(3, len(dataset), penalty=penalty_spec)
    trajectory = rollout(model, x0, theta, dataset.inputs)
    adjoint = gradient(model, trajectory, dataset, spec, theta)
    naive = gradient_naive(model, trajectory, dataset, spec, theta)
    fd = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
    assert report_gap(adjoint, naive) <= 1e-10
    assert report_gap(adjoint, fd) <= 1e-5
