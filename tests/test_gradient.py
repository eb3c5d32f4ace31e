"""Gradient engine: hand examples, oracle agreement, structural properties."""

import dataclasses
import importlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (Dataset, DimensionMismatch, EnergyConservation, GradientReport,
                  IdentifyOptions, InvalidBox, LossSpec, NoiseSpec, NonFiniteValue, ParameterBox,
                  PenaltySpec, ReluUpperBound, SparsityMask, Trajectory,
                  TrajectoryMismatch, UpperBarrier, cost, euler_attitude_model,
                  fd_gradient, gamma_terms, generate_dataset, gradient, gradient_naive,
                  identify, prediction_error, rollout, rotational_energy,
                  rotational_energy_term, scalar_linear_model)
from msid.gradient import REDUCTION_MAX_SIZE
from msid.structure import masked_jac_f_x, sparse_chain_apply
from conftest import (ATTITUDE_OMEGA0, ATTITUDE_THETA, attitude_dataset, max_rel_gap,
                      random_instance, random_smooth_model, reference_adjoint_loop,
                      reference_pairwise_product, report_gap)

# the module itself: the package exports its function ``gradient`` under its name
gradient_module = importlib.import_module("msid.gradient")


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

    def test_q_is_a_read_only_copy(self):
        q = np.eye(2)
        spec = LossSpec(q, 5)
        q[0, 0] = 7.0  # the caller's Q stays writeable
        assert np.array_equal(spec.Q, np.eye(2)) and not spec.Q.flags.writeable

    @pytest.mark.parametrize("q", [(1.0 + 1.0j) * np.eye(2), "abc", [["1"]]],
                             ids=["complex", "string", "strings"])
    def test_q_that_is_no_real_matrix_is_refused(self, q):
        with pytest.raises(DimensionMismatch, match=r"^Q must be a real matrix"):
            LossSpec(q, 5)

    def test_penalty_that_is_no_penalty_spec_is_refused(self):
        with pytest.raises(InvalidBox, match=r"^penalty must be a PenaltySpec or None, got 'x'"):
            LossSpec(np.eye(3), 5, penalty="x")

    def test_q_must_be_psd(self):
        with pytest.raises(DimensionMismatch):
            LossSpec(np.array([[-1.0]]), 2)
        with pytest.raises(DimensionMismatch):
            LossSpec(np.array([[1.0, 0.5], [0.4, 1.0]]), 2)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: LossSpec(np.zeros((0, 0)), 5), id="zeros"),
        pytest.param(lambda: LossSpec.scaled_identity(0, 5), id="scaled-identity"),
    ])
    def test_an_empty_q_is_refused(self, build):
        with pytest.raises(DimensionMismatch, match=r"Q must be square and non-empty"):
            build()

    @pytest.mark.parametrize("n_z", [-1, 1.5, 2.0, True, "2", None])
    def test_scaled_identity_refuses_a_size_that_is_no_integer_at_least_zero(self, n_z):
        with pytest.raises(DimensionMismatch, match=r"n_z must be an integer >= 0, got"):
            LossSpec.scaled_identity(n_z, 5)

    def test_scaled_identity_takes_a_numpy_integer_size(self):
        assert np.array_equal(LossSpec.scaled_identity(np.int64(2), 5, 3.0).Q, 3.0 * np.eye(2))


class TestGammaTerms:
    def test_zero_error_all_zero(self):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((3, 1)), np.ones((3, 1)))
        trajectory = rollout(model, [1.0], [1.0], dataset.inputs)
        spec = LossSpec.scaled_identity(1, 3)
        weighted = prediction_error(trajectory, dataset) @ spec.Q
        gamma, big_gamma = gamma_terms(trajectory, weighted, spec,
                                       np.array([1.0]), model)
        assert np.array_equal(gamma, np.zeros((3, 1)))
        assert np.array_equal(big_gamma, np.zeros((3, 1)))

    def test_scalar_hand_value(self, scalar_problem):
        model, trajectory, dataset, spec, theta, _ = scalar_problem
        weighted = prediction_error(trajectory, dataset) @ spec.Q
        _, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
        # e = [0, 1]; Gamma_k = (2/2) e_k
        assert np.allclose(big_gamma.ravel(), [0.0, 1.0])

    def test_weighted_errors_of_another_horizon_are_refused(self, scalar_problem):
        model, trajectory, dataset, spec, theta, _ = scalar_problem
        weighted = prediction_error(trajectory, dataset) @ spec.Q
        with pytest.raises(DimensionMismatch, match="weighted must be row-wise"):
            gamma_terms(trajectory, weighted[:-1], spec, theta, model)

    def test_match_local_loss_finite_differences(self):
        # seeds for Gamma/gamma equal FD of the per-step penalized local loss
        model, dataset, spec, theta, x0 = random_instance(21, penalty_kind="upper")
        trajectory = rollout(model, x0, theta, dataset.inputs)
        weighted = prediction_error(trajectory, dataset) @ spec.Q
        gamma, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
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
        tampered = Trajectory(states, trajectory.predictions, trajectory.parameters)
        spec = LossSpec.scaled_identity(1, horizon)
        with pytest.raises(TrajectoryMismatch, match=f"step {horizon // 2 + 1}"):
            gradient(model, tampered, dataset, spec, np.array([0.9]))

    @pytest.mark.parametrize("step", [1, 20], ids=["first", "last"])
    def test_spot_check_covers_the_first_and_last_step(self, step):
        model = scalar_linear_model()
        dataset = Dataset(np.zeros((20, 1)), np.ones((20, 1)))
        trajectory = rollout(model, [1.0], [0.9], dataset.inputs)
        states = trajectory.states.copy()
        states[step] += 1e-3
        tampered = Trajectory(states, trajectory.predictions, trajectory.parameters)
        spec = LossSpec.scaled_identity(1, 20)
        with pytest.raises(TrajectoryMismatch, match=f"step {step} does not reproduce"):
            gradient(model, tampered, dataset, spec, np.array([0.9]))

    @pytest.mark.parametrize("theta", [[[2.0]], [2.0, 0.0], 2.0],
                             ids=["column", "one-more", "scalar"])
    def test_theta_of_another_shape_is_a_mismatch(self, scalar_problem, theta):
        # equal values in another shape are other parameters, as for np.array_equal
        model, trajectory, dataset, spec, _, _ = scalar_problem
        with pytest.raises(TrajectoryMismatch, match="different parameters"):
            gradient(model, trajectory, dataset, spec, np.array(theta))

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


    @pytest.mark.parametrize("spec,message", [
        pytest.param(LossSpec(np.eye(2), 20), r"Q must have shape \(3, 3\)", id="Q"),
        pytest.param(LossSpec.scaled_identity(3, 20, penalty=PenaltySpec((
            UpperBarrier(np.zeros(2), alpha=1.0),))),
            "penalty term UpperBarrier: bounds must have length 3, got 2", id="barrier"),
        pytest.param(LossSpec.scaled_identity(3, 20, penalty=PenaltySpec((
            ParameterBox(np.zeros(2), np.ones(2), alpha=1.0),))),
            "penalty term ParameterBox: lower must have length 3, got 2", id="parameter-box"),
        pytest.param(LossSpec.scaled_identity(3, 20, penalty=PenaltySpec((
            ReluUpperBound(np.zeros(4)),))),
            "penalty term ReluUpperBound: bounds must have length 3, got 4", id="relu"),
    ])
    @pytest.mark.parametrize("path", ["cost", "gradient", "gradient_naive", "fd_gradient",
                                      "identify"])
    def test_sizes_are_checked_against_the_model(self, spec, message, path):
        model, dataset = attitude_dataset(seed=1, horizon=20)
        theta, x0 = ATTITUDE_THETA, ATTITUDE_OMEGA0
        trajectory = rollout(model, x0, theta, dataset.inputs)
        calls = {
            "cost": lambda: cost(trajectory, dataset, spec, theta),
            "gradient": lambda: gradient(model, trajectory, dataset, spec, theta),
            "gradient_naive": lambda: gradient_naive(model, trajectory, dataset, spec, theta),
            "fd_gradient": lambda: fd_gradient(model, x0, theta, dataset, spec),
            "identify": lambda: identify(model, dataset, spec, theta, x0,
                                         IdentifyOptions(max_epochs=1)),
        }
        with pytest.raises(DimensionMismatch, match=message):
            calls[path]()


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
        weighted = prediction_error(trajectory, dataset) @ spec.Q
        _, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
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


# a random Jacobian stack in four memory layouts: row-major, a transposed
# view (each matrix column-major), one matrix broadcast over the horizon, and
# every other column of a wider stack (each matrix in neither order)
JACOBIAN_LAYOUTS = {
    "contiguous": lambda jac: jac,
    "transposed": lambda jac: jac.transpose(0, 2, 1),
    "broadcast": lambda jac: np.broadcast_to(jac[0], jac.shape),
    "strided": lambda jac: np.repeat(jac, 2, axis=-1)[..., ::2],
}


class TestBackwardPass:
    @given(horizon=st.integers(2, 300), n_x=st.integers(1, 5), n_theta=st.integers(1, 5),
           layout=st.sampled_from(sorted(JACOBIAN_LAYOUTS)), masked=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_reduction_matches_the_long_double_recurrence(
            self, horizon, n_x, n_theta, layout, masked, seed):
        rng = np.random.default_rng(seed)
        big_gamma = rng.normal(size=(horizon, n_x))
        jac_x = rng.normal(size=(horizon - 1, n_x, n_x)) / n_x ** 0.5
        jac_theta = rng.normal(size=(horizon - 1, n_x, n_theta))
        if masked:
            pattern = rng.integers(0, 2, size=(n_x, n_x)) | np.eye(n_x, dtype=int)
            jac_x = masked_jac_f_x(jac_x, SparsityMask(pattern))
        jac_x = JACOBIAN_LAYOUTS[layout](jac_x)
        seeds = big_gamma.copy()
        product = sparse_chain_apply if masked else np.matmul
        row, products = gradient_module._reduced_row(big_gamma, jac_x, jac_theta, product)
        assert products == horizon - 1 and np.array_equal(big_gamma, seeds)
        # the same values in the other layouts, through either product, give
        # the same bytes: the reduction copies the Jacobians into one stack
        for copy in (np.ascontiguousarray(jac_x),
                     np.ascontiguousarray(jac_x.transpose(0, 2, 1)).transpose(0, 2, 1),
                     np.repeat(jac_x, 2, axis=-1)[..., ::2]):
            for other in (np.matmul, sparse_chain_apply):
                again, _ = gradient_module._reduced_row(big_gamma, copy, jac_theta, other)
                assert again.tobytes() == row.tobytes()
        adjoint = big_gamma[-1].astype(np.longdouble)
        theta_terms = np.zeros(n_theta, dtype=np.longdouble)
        for k in range(horizon - 2, -1, -1):
            theta_terms += adjoint @ jac_theta[k].astype(np.longdouble)
            adjoint = big_gamma[k] + adjoint @ jac_x[k].astype(np.longdouble)
        assert row[-1] == 1.0
        assert max_rel_gap(row[:n_x], adjoint) <= 1e-12
        assert max_rel_gap(row[n_x:-1], theta_terms) <= 1e-12

    @given(horizon=st.integers(2, 64), n_x=st.integers(1, 12),
           layout=st.sampled_from(sorted(JACOBIAN_LAYOUTS)),
           seed=st.integers(0, 2**32 - 1))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_loop_equals_plain_matmul_loop(self, horizon, n_x, layout, seed):
        # the fallback loop steps through row views; in every layout it must
        # give the bits of adjoint @ jac on the C-ordered stack, one step at
        # a time, so its bits do not depend on the layout
        rng = np.random.default_rng(seed)
        big_gamma = rng.normal(size=(horizon, n_x))
        seeds = big_gamma.copy()
        jac_x = JACOBIAN_LAYOUTS[layout](rng.normal(size=(horizon - 1, n_x, n_x)))
        contiguous = np.ascontiguousarray(jac_x)
        expected = big_gamma.copy()
        for k in range(horizon - 1, 0, -1):
            expected[k - 1] += expected[k] @ contiguous[k - 1]
        adjoints = gradient_module._backward_adjoints(big_gamma, jac_x)
        assert np.array_equal(adjoints, expected)
        assert np.array_equal(big_gamma, seeds)

    @pytest.mark.parametrize("n_x", [3, 9], ids=["product", "loop"])
    def test_reports_do_not_depend_on_the_jacobian_layout(self, n_x):
        # a model whose Jacobians come in each layout gives the bytes of the
        # same values in C order, on the pairwise product (n_x + n_theta = 6)
        # and on the step-by-step loop (18 > REDUCTION_MAX_SIZE)
        assert (2 * n_x > REDUCTION_MAX_SIZE) == (n_x == 9)
        rng = np.random.default_rng(2700 + n_x)
        base = random_smooth_model(rng, n_x, 1, 2, n_x)
        horizon = 40
        theta, x0 = rng.uniform(-0.5, 0.5, n_x), rng.uniform(-0.5, 0.5, n_x)
        inputs = 0.3 * rng.normal(size=(horizon, 1))
        trajectory = rollout(base, x0, theta, inputs)
        dataset = Dataset(inputs, trajectory.predictions + 0.02 * rng.normal(size=(horizon, 2)))
        spec = LossSpec.scaled_identity(2, horizon)

        def handing_over(layout):
            return dataclasses.replace(
                base, jac_f_x_batch=lambda *args: layout(base.jac_f_x_batch(*args)),
                jac_f_theta_batch=lambda *args: layout(base.jac_f_theta_batch(*args)))

        for name, layout in JACOBIAN_LAYOUTS.items():
            given_model = handing_over(layout)
            contiguous_model = handing_over(lambda jac: np.ascontiguousarray(layout(jac)))
            given = gradient(given_model, trajectory, dataset, spec, theta)
            contiguous = gradient(contiguous_model, trajectory, dataset, spec, theta)
            assert given.grad_theta.tobytes() == contiguous.grad_theta.tobytes(), name
            assert given.grad_x0.tobytes() == contiguous.grad_x0.tobytes(), name
            assert given.cost == contiguous.cost
            assert given.chain_applications == contiguous.chain_applications == horizon - 1

    @pytest.mark.parametrize("seed,penalty_kind",
                             [(11, None), (12, "energy"), (13, "upper"), (14, "box")])
    def test_dense_path_equals_step_by_step_loop(self, seed, penalty_kind):
        # bit for bit the same pairwise product written out plainly, and
        # within rounding of the step-by-step loop
        model, dataset, spec, theta, x0 = random_instance(seed, penalty_kind=penalty_kind)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        report = gradient(model, trajectory, dataset, spec, theta)
        grad_theta, grad_x0 = reference_pairwise_product(model, trajectory, dataset, spec, theta)
        assert np.array_equal(report.grad_theta, grad_theta)
        assert np.array_equal(report.grad_x0, grad_x0)
        grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
        assert max_rel_gap(report.grad_theta, grad_theta) <= 1e-12
        assert max_rel_gap(report.grad_x0, grad_x0) <= 1e-12

    @pytest.mark.parametrize("with_sparsity", [False, True])
    @pytest.mark.parametrize("penalty", [False, True])
    def test_attitude_paths_equal_step_by_step_loop(self, with_sparsity, penalty):
        model = euler_attitude_model(dt=0.1, with_sparsity=with_sparsity)
        # an even horizon and one whose levels fold odd counts (63 = 0b111111)
        for horizon in (50, 63):
            dataset, spec, theta, x0 = masked_attitude_problem(penalty, horizon)
            trajectory = rollout(model, x0, theta, dataset.inputs)
            report = gradient(model, trajectory, dataset, spec, theta)
            grad_theta, grad_x0 = reference_pairwise_product(
                model, trajectory, dataset, spec, theta)
            assert np.array_equal(report.grad_theta, grad_theta)
            assert np.array_equal(report.grad_x0, grad_x0)
            grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
            assert max_rel_gap(report.grad_theta, grad_theta) <= 1e-12
            assert max_rel_gap(report.grad_x0, grad_x0) <= 1e-12

    @pytest.mark.parametrize("penalty", [False, True])
    def test_masked_attitude_three_way_anchor(self, penalty):
        dense_model = euler_attitude_model(dt=0.1)
        masked_model = euler_attitude_model(dt=0.1, with_sparsity=True)
        # the O(T^2) double sum is left out at T=3200
        for horizon in (50, 65, 3200):
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


class TestPairwiseReduction:
    """With at most REDUCTION_MAX_SIZE states and parameters together, the
    backward pass is the pairwise product of the affine step matrices: equal
    to the step-by-step loop to rounding."""

    @pytest.mark.parametrize("horizon", [65, 3200])
    @pytest.mark.parametrize("penalty_kind", [None, "energy", "upper"])
    @pytest.mark.parametrize("n_x", [1, 2, 4])
    def test_reduction_equals_step_by_step_loop(self, n_x, penalty_kind, horizon):
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
        # horizon; the pairwise product and the loop are each within 1e-12
        # of the recurrence evaluated in long double
        horizon = 3200
        model, dataset, spec, theta, x0 = random_instance(
            24, penalty_kind="energy", n_x=4, horizon=horizon)
        trajectory = rollout(model, x0, theta, dataset.inputs)
        weighted = prediction_error(trajectory, dataset) @ spec.Q
        _, big_gamma = gamma_terms(trajectory, weighted, spec, theta, model)
        jac_x = model.jac_f_x_batch(trajectory.states[:horizon - 1],
                                    dataset.inputs[:horizon - 1], theta)
        exact = big_gamma.astype(np.longdouble)
        for k in range(horizon - 1, 0, -1):
            exact[k - 1] += exact[k] @ jac_x[k - 1].astype(np.longdouble)
        report = gradient(model, trajectory, dataset, spec, theta)
        _, loop_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
        assert max_rel_gap(report.grad_x0, exact[0]) <= 1e-12
        assert max_rel_gap(loop_x0, exact[0]) <= 1e-12

    def test_wide_pass_stays_on_the_loop(self):
        model, dataset, spec, theta, x0 = random_instance(
            31, penalty_kind="energy", n_x=REDUCTION_MAX_SIZE, horizon=65)
        assert model.dims.n_x + model.dims.n_theta > REDUCTION_MAX_SIZE
        trajectory = rollout(model, x0, theta, dataset.inputs)
        report = gradient(model, trajectory, dataset, spec, theta)
        grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
        assert np.array_equal(report.grad_theta, grad_theta)
        assert np.array_equal(report.grad_x0, grad_x0)
        assert report.chain_applications == 64

    # x[k+1] = theta x[k] from x0 = 0: every state and every adjoint but the
    # first is zero.  At theta = 1e200 over 65 steps and at theta = 1e5 over
    # 3200, the product of the step matrices overflows and its last row
    # holds 0 * inf = NaN, so the pass falls back to the loop once.  The
    # report counts the products of both.
    @pytest.mark.parametrize("horizon,theta", [(65, 1e200), (3200, 1e5)],
                             ids=["chunk-products", "carry-products"])
    def test_overflowing_products_fall_back_to_the_loop(self, monkeypatch, horizon, theta):
        model = scalar_linear_model()
        observations = np.zeros((horizon, 1))
        observations[0] = 1.0
        dataset = Dataset(np.zeros((horizon, 1)), observations)
        theta = np.array([theta])
        spec = LossSpec.scaled_identity(1, horizon)
        trajectory = rollout(model, [0.0], theta, dataset.inputs)
        backward_adjoints, horizons = gradient_module._backward_adjoints, []

        def recorded(big_gamma, jac_x):
            horizons.append(len(big_gamma))
            return backward_adjoints(big_gamma, jac_x)

        monkeypatch.setattr(gradient_module, "_backward_adjoints", recorded)
        for model in (model, with_full_mask(model)):
            horizons.clear()
            report = gradient(model, trajectory, dataset, spec, theta)
            assert horizons == [horizon]
            assert report.chain_applications == 2 * (horizon - 1)
            grad_theta, grad_x0 = reference_adjoint_loop(model, trajectory, dataset, spec, theta)
            assert np.array_equal(report.grad_theta, grad_theta)
            assert np.array_equal(report.grad_x0, grad_x0)
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
