"""Sparsity masks, masked Jacobians, and the masked adjoint product."""

import dataclasses

import numpy as np
import pytest

from msid import (DimensionMismatch, DynamicalModel, LossSpec, MaskViolation,
                  ModelDims, SparsityMask, euler_attitude_model,
                  euler_sparsity_mask, gradient, masked_jac_f_x, rollout,
                  sparse_chain_apply, validate_mask)
from msid.structure import entry_evaluations
from conftest import (ATTITUDE_OMEGA0, ATTITUDE_THETA, diagonal_rows, max_rel_gap,
                      reference_adjoint_loop)


def diagonal_square_model(n=3):
    """Decoupled dynamics f_j(x) = x_j^2."""
    dims = ModelDims(n, 1, n, 1)
    return DynamicalModel(
        dims=dims,
        f=lambda x, u, th: x * x,
        g=lambda x: x,
        jac_f_x_batch=lambda s, u, th: diagonal_rows(2.0 * s),
        jac_f_theta_batch=lambda s, u, th: np.zeros((len(s), n, 1)),
    )


class TestSparsityMask:
    def test_counts_nonzeros(self):
        mask = SparsityMask(np.eye(3, dtype=int))
        assert mask.n_nz == 3
        assert mask.n_x == 3

    def test_rejects_non_binary(self):
        with pytest.raises(DimensionMismatch):
            SparsityMask(np.full((2, 2), 0.5))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(DimensionMismatch):
            SparsityMask(np.ones(shape, dtype=int))


def state_jacobians(model, states, inputs, theta):
    return model.transition_jacobians(states, inputs, theta)[0]


class TestMaskedJacobian:
    def test_full_mask_equals_dense(self):
        dense = state_jacobians(euler_attitude_model(), ATTITUDE_OMEGA0[None],
                                np.zeros((1, 3)), ATTITUDE_THETA)[0]
        assert np.array_equal(masked_jac_f_x(dense, euler_sparsity_mask()), dense)

    def test_diagonal_model_work_bound(self):
        model = diagonal_square_model(4)
        mask = SparsityMask(np.eye(4, dtype=int))
        dense = state_jacobians(model, np.array([[1.0, 2.0, 3.0, 4.0]]), np.zeros((1, 1)),
                                np.ones(1))
        entry_evaluations.reset()
        masked = masked_jac_f_x(dense, mask)
        assert entry_evaluations.count == 4
        assert np.array_equal(masked, np.diag([2.0, 4.0, 6.0, 8.0])[None])

    def test_euler_entry_count_is_n_nz(self):
        mask = euler_sparsity_mask()
        dense = state_jacobians(euler_attitude_model(), ATTITUDE_OMEGA0[None],
                                np.zeros((1, 3)), ATTITUDE_THETA)
        entry_evaluations.reset()
        masked_jac_f_x(dense, mask)
        assert entry_evaluations.count == mask.n_nz == 9

    def test_dense_gather_fallback(self):
        rng = np.random.default_rng(0)
        from conftest import random_smooth_model
        model = random_smooth_model(rng, 3, 1, 2, 2)
        mask = SparsityMask(np.ones((3, 3), dtype=int))
        x, u, theta = rng.normal(size=3), rng.normal(size=1), rng.normal(size=2)
        masked = masked_jac_f_x(state_jacobians(model, x[None], u[None], theta), mask)
        assert np.array_equal(masked, model.jac_f_x_batch(x[None], u[None], theta))

    def test_wrong_mask_detected(self):
        model = euler_attitude_model()
        bad = SparsityMask(np.eye(3, dtype=int))
        state = np.array([0.3, -0.2, 0.4])
        with pytest.raises(MaskViolation):
            validate_mask(model, bad, [(state, np.zeros(3), ATTITUDE_THETA)])
        validate_mask(model, euler_sparsity_mask(),
                      [(state, np.zeros(3), ATTITUDE_THETA)])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_judged_by_position(self, value):
        # at a masked-out entry it violates the mask; inside the mask it does not
        def model_with(jac):
            return DynamicalModel(dims=ModelDims(2, 1, 2, 1), f=lambda x, u, th: x,
                                  g=lambda x: x,
                                  jac_f_x_batch=lambda s, u, th: jac[None].repeat(len(s), 0),
                                  jac_f_theta_batch=lambda s, u, th: np.zeros((len(s), 2, 1)))

        point = [(np.zeros(2), np.zeros(1), np.ones(1))]
        mask = SparsityMask(np.eye(2, dtype=int))
        with pytest.raises(MaskViolation):
            validate_mask(model_with(np.array([[1.0, value], [0.0, 1.0]])), mask, point)
        validate_mask(model_with(np.array([[value, 0.0], [0.0, 1.0]])), mask, point)

    def test_one_matrix_for_a_block_is_refused(self):
        model = DynamicalModel(dims=ModelDims(2, 1, 2, 1), f=lambda x, u, th: x,
                               g=lambda x: x, jac_f_x_batch=lambda s, u, th: np.eye(2),
                               jac_f_theta_batch=lambda s, u, th: np.zeros((len(s), 2, 1)))
        mask = SparsityMask(np.eye(2, dtype=int))
        with pytest.raises(DimensionMismatch, match="jac_f_x_batch must be row-wise"):
            validate_mask(model, mask, [(np.zeros(2), np.zeros(1), np.ones(1))])
        with pytest.raises(DimensionMismatch, match="jac_f_x_batch must be row-wise"):
            model.transition_jacobians(np.zeros((4, 2)), np.zeros((4, 1)), np.ones(1))

    @pytest.mark.parametrize("check", [
        pytest.param(lambda model, mask: validate_mask(
            model, mask, [(ATTITUDE_OMEGA0, np.zeros(3), ATTITUDE_THETA)]), id="validate_mask"),
        pytest.param(lambda model, mask: masked_jac_f_x(state_jacobians(
            model, ATTITUDE_OMEGA0[None], np.zeros((1, 3)), ATTITUDE_THETA), mask),
            id="masked_jac_f_x"),
    ])
    def test_mask_of_another_size_is_refused(self, check):
        with pytest.raises(DimensionMismatch, match="mask is 2x2 but the model has n_x=3"):
            check(euler_attitude_model(), SparsityMask(np.eye(2, dtype=int)))


def reference_masked_values(model, states, inputs, theta, mask):
    """The per-point loop that block evaluation replaced: one dense Jacobian
    per point, a batch of one row, its entries at the mask copied into zeros."""
    rows, cols = np.nonzero(mask.state_mask)
    n_x = mask.n_x
    vals = np.zeros((len(states), n_x, n_x))
    for k, (x, u) in enumerate(zip(states, inputs)):
        vals[k, rows, cols] = model.jac_f_x_batch(x[None], u[None], theta)[0, rows, cols]
    return vals


ATTITUDE_MASKS = (euler_sparsity_mask(),
                  SparsityMask(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])))


class TestBlockMaskedJacobian:
    def test_block_equals_per_point_loop_bit_for_bit(self):
        model = euler_attitude_model(dt=0.1)
        rng = np.random.default_rng(41)
        for inertia in rng.uniform(0.005, 1.0, size=(4, 3)):
            # 4 x 500 = 2,000 random attitude points
            states = rng.normal(scale=0.8, size=(500, 3))
            inputs = rng.normal(scale=0.1, size=(500, 3))
            dense = state_jacobians(model, states, inputs, inertia)
            for mask in ATTITUDE_MASKS:
                block = masked_jac_f_x(dense, mask)
                assert block.shape == (500, 3, 3)
                reference = reference_masked_values(model, states, inputs, inertia, mask)
                assert np.array_equal(block, reference)
                assert np.array_equal(block, dense * mask.state_mask)
                nested = masked_jac_f_x(dense.reshape(20, 25, 3, 3), mask)
                assert np.array_equal(nested.reshape(500, 3, 3), reference)
                assert np.array_equal(masked_jac_f_x(dense[7], mask), reference[7])

    def test_per_point_model_fallback_equals_per_point_loop(self):
        from conftest import random_smooth_model
        rng = np.random.default_rng(42)
        model = random_smooth_model(rng, 4, 2, 2, 3)
        mask = SparsityMask(rng.integers(0, 2, size=(4, 4)))
        states, inputs = rng.normal(size=(30, 4)), rng.normal(size=(30, 2))
        theta = rng.normal(size=3)
        block = masked_jac_f_x(state_jacobians(model, states, inputs, theta), mask)
        assert np.array_equal(block, reference_masked_values(model, states, inputs, theta, mask))

    def test_entry_count_grows_by_n_nz_per_row(self):
        mask = ATTITUDE_MASKS[1]
        for lead, rows in (((), 1), ((7,), 7), ((2, 4), 8)):
            entry_evaluations.reset()
            masked_jac_f_x(np.full(lead + (3, 3), 0.1), mask)
            assert entry_evaluations.count == rows * mask.n_nz == rows * 6

    def test_wrong_state_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            state_jacobians(euler_attitude_model(), np.zeros((5, 2)), np.zeros((5, 3)),
                            ATTITUDE_THETA)
        with pytest.raises(DimensionMismatch, match="mask is 3x3 but the model has n_x=2"):
            masked_jac_f_x(np.zeros((5, 2, 2)), euler_sparsity_mask())

    @pytest.mark.parametrize("state_shape,input_shape", [
        ((5, 3), (5, 2)), ((5, 3), (5, 7)), ((4, 3), (5, 3)), ((3,), (2,)), ((2, 4, 3), (8, 3))])
    def test_wrong_input_shape_rejected(self, state_shape, input_shape):
        with pytest.raises(DimensionMismatch) as caught:
            state_jacobians(euler_attitude_model(), np.full(state_shape, 0.1),
                            np.zeros(input_shape), ATTITUDE_THETA)
        assert str(state_shape) in str(caught.value)
        assert str(input_shape) in str(caught.value)


class TestSparseChainApply:
    def test_identity(self):
        row = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(sparse_chain_apply(row, np.eye(3)), row)

    def test_single_entry_hand_value(self):
        single = np.zeros((3, 3))
        single[2, 0] = 5.0
        result = sparse_chain_apply(np.array([1.0, 1.0, 1.0]), single)
        assert np.array_equal(result, [5.0, 0.0, 0.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            dense = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
            row = rng.normal(size=n)
            assert np.array_equal(sparse_chain_apply(row, dense), row @ dense)

    @pytest.mark.parametrize("row_shape,jac_shape", [
        # the rows' last axis does not fit
        ((2,), (3, 3)), ((4, 2), (3, 3)), ((), (3, 3)),
        # the Jacobian is not a (..., n, n) stack
        ((3,), (3,)), ((3,), (3, 4)), ((2, 3), (5, 3, 4)),
        # the leading shapes do not broadcast
        ((5, 1, 3), (4, 3, 3)), ((2, 5, 1, 3), (3, 4, 3, 3))])
    def test_bad_shapes_rejected(self, row_shape, jac_shape):
        with pytest.raises(DimensionMismatch) as caught:
            sparse_chain_apply(np.ones(row_shape), np.ones(jac_shape))
        assert str(row_shape) in str(caught.value)
        assert str(jac_shape) in str(caught.value)
        # a fitting out= does not change whom the message blames
        with pytest.raises(DimensionMismatch, match="do not chain"):
            sparse_chain_apply(np.ones(row_shape), np.ones(jac_shape), out=np.empty(3))

    @pytest.mark.parametrize("row_shape,jac_shape,out_shape", [
        ((2, 3, 3), (2, 3, 3), (2, 3, 4)), ((3,), (3, 3), (4,)), ((3,), (5, 3, 3), (3,)),
        ((4, 3), (3, 3), (3, 4))])
    def test_an_out_of_the_wrong_shape_is_named(self, row_shape, jac_shape, out_shape):
        # the rows and the Jacobian chain; only out is at fault
        with pytest.raises(DimensionMismatch) as caught:
            sparse_chain_apply(np.ones(row_shape), np.ones(jac_shape), out=np.empty(out_shape))
        assert str(caught.value).startswith(f"out of shape {out_shape}")
        assert "do not chain" not in str(caught.value)

    @pytest.mark.parametrize("row_shape,vals_lead", [
        ((5, 4), ()), ((7, 1, 4), (7,)), ((2, 3, 4), (3, 1)), ((4,), (6,)), ((4, 4), (6,))])
    def test_broadcasts_like_matmul(self, row_shape, vals_lead):
        # column 2 of the pattern is empty, and row 1 stores nothing
        pattern = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 1]])
        rng = np.random.default_rng(45)
        stack = np.where(pattern, rng.normal(size=vals_lead + (4, 4)), 0.0)
        block = rng.normal(size=row_shape)
        expected = block @ stack
        result = sparse_chain_apply(block, stack)
        assert result.shape == expected.shape
        assert np.array_equal(result, expected)
        assert np.all(result[..., 2] == 0.0)
        # into a given array, as the backward pass writes each level
        out = np.empty_like(expected)
        assert sparse_chain_apply(block, stack, out=out) is out
        assert np.array_equal(out, expected)


class TestMaskedGradientEquivalence:
    def test_euler_masked_equals_dense_path(self):
        from msid import Dataset
        dense_model = euler_attitude_model()
        masked_model = euler_attitude_model(with_sparsity=True)
        theta = ATTITUDE_THETA * 1.07
        # short and long horizons, odd and even levels of the pairwise product
        for horizon in (30, 65, 400, 3200):
            inputs = np.full((horizon, 3), 1e-5)
            trajectory = rollout(dense_model, ATTITUDE_OMEGA0, theta, inputs)
            dataset = Dataset(inputs, trajectory.predictions + 1e-4, 0.1)
            spec = LossSpec.scaled_identity(3, horizon)
            dense = gradient(dense_model, trajectory, dataset, spec, theta)
            masked = gradient(masked_model, trajectory, dataset, spec, theta)
            assert np.array_equal(dense.grad_theta, masked.grad_theta)
            assert np.array_equal(dense.grad_x0, masked.grad_x0)

    def test_scalar_masked_equals_dense_path(self):
        from msid import Dataset, scalar_linear_model
        dense_model = scalar_linear_model()
        mask = SparsityMask(np.ones((1, 1), dtype=int))
        masked_model = dataclasses.replace(dense_model, sparsity=mask)
        inputs = np.zeros((8, 1))
        trajectory = rollout(dense_model, [1.0], [0.9], inputs)
        dataset = Dataset(inputs, trajectory.predictions + 0.1, 1.0)
        spec = LossSpec.scaled_identity(1, 8)
        dense = gradient(dense_model, trajectory, dataset, spec, np.array([0.9]))
        masked = gradient(masked_model, trajectory, dataset, spec, np.array([0.9]))
        assert np.array_equal(dense.grad_theta, masked.grad_theta)
        assert np.array_equal(dense.grad_x0, masked.grad_x0)

    def test_random_sparse_model_equivalence(self):
        # a genuinely sparse chain: state j feeds only states j and j+1
        n = 4
        pattern = np.tril(np.ones((n, n), dtype=int)) - np.tril(
            np.ones((n, n), dtype=int), -2)
        coeff = np.where(pattern, 0.2, 0.0)

        def f(x, u, th):
            return x + 0.1 * (coeff @ np.tanh(x)) + 0.05 * th

        def jac_f_x_batch(s, u, th):
            return np.eye(n) + 0.1 * coeff / np.cosh(s)[:, None, :] ** 2

        dims = ModelDims(n, 1, n, n)
        dense_model = DynamicalModel(
            dims=dims, f=f, g=lambda x: x, jac_f_x_batch=jac_f_x_batch,
            jac_f_theta_batch=lambda s, u, th: np.broadcast_to(0.05 * np.eye(n), (len(s), n, n)),
            jac_g_x_batch=lambda s: np.broadcast_to(np.eye(n), (len(s), n, n)))
        mask = SparsityMask(pattern)
        masked_model = dataclasses.replace(dense_model, sparsity=mask)

        from msid import Dataset
        for horizon in (12, 65):
            rng = np.random.default_rng(3)
            inputs = np.zeros((horizon, 1))
            theta = rng.normal(size=n)
            x0 = rng.normal(size=n)
            trajectory = rollout(dense_model, x0, theta, inputs)
            dataset = Dataset(inputs, trajectory.predictions + 0.01, 1.0)
            spec = LossSpec.scaled_identity(n, horizon)
            dense = gradient(dense_model, trajectory, dataset, spec, theta)
            masked = gradient(masked_model, trajectory, dataset, spec, theta)
            loop_theta, loop_x0 = reference_adjoint_loop(
                masked_model, trajectory, dataset, spec, theta)
            for grad_theta, grad_x0 in ((dense.grad_theta, dense.grad_x0),
                                        (loop_theta, loop_x0)):
                assert max_rel_gap(grad_theta, masked.grad_theta) <= 1e-12
                assert max_rel_gap(grad_x0, masked.grad_x0) <= 1e-12

    def test_non_finite_entry_outside_mask_never_reaches_gradient(self):
        # decoupled dynamics whose Jacobian reports NaN off the diagonal: the
        # diagonal mask must drop those entries, not multiply them by zero
        from msid import Dataset
        n = 3

        def f(x, u, th):
            return x + 0.1 * np.tanh(x) * th

        def diagonal(s, u, th):
            return diagonal_rows(1.0 + 0.1 * th / np.cosh(s) ** 2)

        def with_nan(s, u, th):
            return np.where(np.eye(n, dtype=bool), diagonal(s, u, th), np.nan)

        def model_with(jac_f_x_batch, sparsity=None):
            return DynamicalModel(
                dims=ModelDims(n, 1, n, n), f=f, g=lambda x: x,
                jac_f_x_batch=jac_f_x_batch,
                jac_f_theta_batch=lambda s, u, th: diagonal_rows(0.1 * np.tanh(s)),
                jac_g_x_batch=lambda s: np.broadcast_to(np.eye(n), (len(s), n, n)),
                sparsity=sparsity)

        clean = model_with(diagonal)
        masked = model_with(with_nan, SparsityMask(np.eye(n, dtype=int)))
        rng = np.random.default_rng(7)
        theta, x0 = rng.uniform(0.5, 1.5, size=n), rng.normal(size=n)
        for horizon in (12, 65):
            inputs = np.zeros((horizon, 1))
            trajectory = rollout(clean, x0, theta, inputs)
            dataset = Dataset(inputs, trajectory.predictions + 0.01, 1.0)
            spec = LossSpec.scaled_identity(n, horizon)
            expected = gradient(clean, trajectory, dataset, spec, theta)
            report = gradient(masked, trajectory, dataset, spec, theta)
            assert np.all(np.isfinite(report.grad_theta)) and np.all(np.isfinite(report.grad_x0))
            assert np.array_equal(report.grad_theta, expected.grad_theta)
            assert np.array_equal(report.grad_x0, expected.grad_x0)
