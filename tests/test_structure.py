"""Sparsity masks, masked Jacobians, and the sparse adjoint product."""

import dataclasses

import numpy as np
import pytest

from msid import (DimensionMismatch, DynamicalModel, LossSpec, MaskViolation,
                  ModelDims, SparseMatrix, SparsityMask, euler_attitude_model,
                  euler_sparsity_mask, gradient, masked_jac_f_x, rollout,
                  sparse_chain_apply, validate_mask)
from msid.gradient import SCAN_MIN_HORIZON
from msid.structure import entry_evaluations
from conftest import (ATTITUDE_OMEGA0, ATTITUDE_THETA, max_rel_gap,
                      reference_adjoint_loop)


def diagonal_square_model(n=3):
    """Decoupled dynamics f_j(x) = x_j^2."""
    dims = ModelDims(n, 1, n, 1)
    return DynamicalModel(
        dims=dims,
        f=lambda x, u, th: x * x,
        g=lambda x: x,
        jac_f_x=lambda x, u, th: np.diag(2.0 * x),
    )


class TestSparsityMask:
    def test_counts_nonzeros(self):
        mask = SparsityMask(np.eye(3, dtype=int), np.ones((3, 2), dtype=int))
        assert mask.n_nz == 3
        assert mask.n_x == 3

    def test_rejects_non_binary(self):
        with pytest.raises(DimensionMismatch):
            SparsityMask(np.full((2, 2), 0.5), np.zeros((2, 1)))


class TestMaskedJacobian:
    def test_full_mask_equals_dense(self):
        model = euler_attitude_model()
        mask = euler_sparsity_mask()
        sparse = masked_jac_f_x(model, ATTITUDE_OMEGA0, np.zeros(3),
                                ATTITUDE_THETA, mask)
        dense = model.jac_f_x(ATTITUDE_OMEGA0, np.zeros(3), ATTITUDE_THETA)
        assert np.array_equal(sparse.to_dense(), dense)

    def test_diagonal_model_work_bound(self):
        model = diagonal_square_model(4)
        mask = SparsityMask(np.eye(4, dtype=int), np.zeros((4, 1), dtype=int))
        entry_evaluations.reset()
        sparse = masked_jac_f_x(model, np.array([1.0, 2.0, 3.0, 4.0]),
                                np.zeros(1), np.ones(1), mask)
        assert entry_evaluations.count == 4
        assert np.array_equal(sparse.to_dense(), np.diag([2.0, 4.0, 6.0, 8.0]))

    def test_euler_entry_count_is_n_nz(self):
        model = euler_attitude_model()
        mask = euler_sparsity_mask()
        entry_evaluations.reset()
        masked_jac_f_x(model, ATTITUDE_OMEGA0, np.zeros(3), ATTITUDE_THETA, mask)
        assert entry_evaluations.count == mask.n_nz == 9

    def test_dense_gather_fallback(self):
        rng = np.random.default_rng(0)
        from conftest import random_smooth_model
        model = random_smooth_model(rng, 3, 1, 2, 2)
        mask = SparsityMask(np.ones((3, 3), dtype=int), np.ones((3, 1), dtype=int))
        x, u, theta = rng.normal(size=3), rng.normal(size=1), rng.normal(size=2)
        sparse = masked_jac_f_x(model, x, u, theta, mask)
        assert np.array_equal(sparse.to_dense(), model.jac_f_x(x, u, theta))

    def test_wrong_mask_detected(self):
        model = euler_attitude_model()
        bad = SparsityMask(np.eye(3, dtype=int), np.eye(3, dtype=int))
        state = np.array([0.3, -0.2, 0.4])
        with pytest.raises(MaskViolation):
            validate_mask(model, bad, [(state, np.zeros(3), ATTITUDE_THETA)])
        validate_mask(model, euler_sparsity_mask(),
                      [(state, np.zeros(3), ATTITUDE_THETA)])


def reference_masked_values(model, states, inputs, theta, mask):
    """The per-point loop that block evaluation replaced: one dense Jacobian
    per point, gathered at the mask."""
    vals = np.empty((len(states), mask.n_nz))
    for k, (x, u) in enumerate(zip(states, inputs)):
        vals[k] = np.asarray(model.jac_f_x(x, u, theta), dtype=float)[mask.rows, mask.cols]
    return vals


ATTITUDE_MASKS = (euler_sparsity_mask(),
                  SparsityMask(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), np.eye(3)))


class TestBlockMaskedJacobian:
    def test_block_equals_per_point_loop_bit_for_bit(self):
        model = euler_attitude_model(dt=0.1)
        rng = np.random.default_rng(41)
        for inertia in rng.uniform(0.005, 1.0, size=(4, 3)):
            # 4 x 500 = 2,000 random attitude points
            states = rng.normal(scale=0.8, size=(500, 3))
            inputs = rng.normal(scale=0.1, size=(500, 3))
            dense = model.jac_f_x_batch(states, inputs, inertia)
            for mask in ATTITUDE_MASKS:
                block = masked_jac_f_x(model, states, inputs, inertia, mask)
                assert block.vals.shape == (500, mask.n_nz)
                reference = reference_masked_values(model, states, inputs, inertia, mask)
                assert np.array_equal(block.vals, reference)
                assert np.array_equal(block.vals, dense[:, mask.rows, mask.cols])
                nested = masked_jac_f_x(model, states.reshape(20, 25, 3),
                                        inputs.reshape(20, 25, 3), inertia, mask)
                assert np.array_equal(nested.vals.reshape(500, -1), reference)
                point = masked_jac_f_x(model, states[7], inputs[7], inertia, mask)
                assert np.array_equal(point.vals, reference[7])

    def test_per_point_model_fallback_equals_per_point_loop(self):
        from conftest import random_smooth_model
        rng = np.random.default_rng(42)
        model = random_smooth_model(rng, 4, 2, 2, 3)
        mask = SparsityMask(rng.integers(0, 2, size=(4, 4)), np.ones((4, 2)))
        states, inputs = rng.normal(size=(30, 4)), rng.normal(size=(30, 2))
        theta = rng.normal(size=3)
        block = masked_jac_f_x(model, states, inputs, theta, mask)
        assert np.array_equal(block.vals,
                              reference_masked_values(model, states, inputs, theta, mask))

    def test_entry_count_grows_by_n_nz_per_row(self):
        model = euler_attitude_model()
        mask = ATTITUDE_MASKS[1]
        for shape, rows in (((3,), 1), ((7, 3), 7), ((2, 4, 3), 8)):
            entry_evaluations.reset()
            masked_jac_f_x(model, np.full(shape, 0.1), np.zeros(shape), ATTITUDE_THETA, mask)
            assert entry_evaluations.count == rows * mask.n_nz == rows * 6

    def test_wrong_state_width_rejected(self):
        with pytest.raises(DimensionMismatch):
            masked_jac_f_x(euler_attitude_model(), np.zeros((5, 2)), np.zeros((5, 3)),
                           ATTITUDE_THETA, euler_sparsity_mask())

    @pytest.mark.parametrize("state_shape,input_shape", [
        ((5, 3), (5, 2)), ((5, 3), (5, 7)), ((4, 3), (5, 3)), ((3,), (2,)), ((2, 4, 3), (8, 3))])
    def test_wrong_input_shape_rejected(self, state_shape, input_shape):
        with pytest.raises(DimensionMismatch) as caught:
            masked_jac_f_x(euler_attitude_model(), np.full(state_shape, 0.1),
                           np.zeros(input_shape), ATTITUDE_THETA, euler_sparsity_mask())
        assert str(state_shape) in str(caught.value)
        assert str(input_shape) in str(caught.value)

    def test_stack_to_dense_and_indexing(self):
        rng = np.random.default_rng(43)
        mask = ATTITUDE_MASKS[1]
        stack = SparseMatrix((3, 3), mask.rows, mask.cols, rng.normal(size=(6, mask.n_nz)))
        dense = stack.to_dense()
        assert dense.shape == (6, 3, 3)
        for k in range(6):
            assert np.array_equal(dense[k], stack[k].to_dense())
            assert np.array_equal(dense[k] * (1 - mask.state_mask), np.zeros((3, 3)))


class TestSparseChainApply:
    def test_identity(self):
        identity = SparseMatrix((3, 3), np.arange(3), np.arange(3), np.ones(3))
        row = np.array([0.3, -1.0, 2.0])
        assert np.array_equal(sparse_chain_apply(row, identity), row)

    def test_single_entry_hand_value(self):
        single = SparseMatrix((3, 3), np.array([2]), np.array([0]), np.array([5.0]))
        result = sparse_chain_apply(np.array([1.0, 1.0, 1.0]), single)
        assert np.array_equal(result, [5.0, 0.0, 0.0])

    def test_matches_dense_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            dense = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.4)
            rows, cols = np.nonzero(dense)
            sparse = SparseMatrix((n, n), rows, cols, dense[rows, cols])
            row = rng.normal(size=n)
            assert max_rel_gap(sparse_chain_apply(row, sparse), row @ dense) <= 1e-14

    def test_equals_add_at_reference_bit_for_bit(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            pattern = rng.integers(0, 2, size=(n, n))
            rows, cols = np.nonzero(pattern)
            sparse = SparseMatrix((n, n), rows, cols, rng.normal(size=rows.size))
            row = rng.normal(size=n)
            reference = np.zeros(n)
            np.add.at(reference, cols, row[rows] * sparse.vals)
            assert np.array_equal(sparse_chain_apply(row, sparse), reference)

    def test_dimension_check(self):
        single = SparseMatrix((3, 3), np.array([0]), np.array([0]), np.array([1.0]))
        for bad in (np.ones(2), np.ones((4, 2)), np.float64(1.0)):
            with pytest.raises(DimensionMismatch):
                sparse_chain_apply(bad, single)

    @pytest.mark.parametrize("row_shape,vals_lead", [
        ((5, 4), ()), ((7, 1, 4), (7,)), ((2, 3, 4), (3, 1)), ((4,), (6,)), ((4, 4), (6,))])
    def test_broadcasts_like_matmul(self, row_shape, vals_lead):
        # column 2 of the pattern is empty, and row 1 stores nothing
        pattern = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 1]])
        rows, cols = np.nonzero(pattern)
        rng = np.random.default_rng(45)
        stack = SparseMatrix((4, 4), rows, cols, rng.normal(size=vals_lead + (rows.size,)))
        block = rng.normal(size=row_shape)
        expected = block @ stack.to_dense()
        result = sparse_chain_apply(block, stack)
        assert result.shape == expected.shape
        assert max_rel_gap(result, expected) <= 1e-14
        assert np.all(result[..., 2] == 0.0)

    def test_block_rows_equal_one_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(46)
        mask = ATTITUDE_MASKS[1]
        stack = SparseMatrix((3, 3), mask.rows, mask.cols, rng.normal(size=(8, mask.n_nz)))
        block = rng.normal(size=(8, 5, 3))
        result = sparse_chain_apply(block, stack)
        for k in range(8):
            for i in range(5):
                assert np.array_equal(result[k, i], sparse_chain_apply(block[k, i], stack[k]))


class TestMaskedGradientEquivalence:
    def test_euler_masked_equals_dense_path(self):
        dense_model = euler_attitude_model()
        masked_model = euler_attitude_model(with_sparsity=True)
        inputs = np.full((30, 3), 1e-5)
        theta = ATTITUDE_THETA * 1.07
        trajectory = rollout(dense_model, ATTITUDE_OMEGA0, theta, inputs)
        observations = trajectory.predictions + 1e-4
        from msid import Dataset
        dataset = Dataset(inputs, observations, 0.1)
        spec = LossSpec.scaled_identity(3, 30)
        dense = gradient(dense_model, trajectory, dataset, spec, theta)
        masked = gradient(masked_model, trajectory, dataset, spec, theta)
        assert max_rel_gap(dense.grad_theta, masked.grad_theta) <= 1e-12
        assert max_rel_gap(dense.grad_x0, masked.grad_x0) <= 1e-12

    def test_scalar_masked_equals_dense_path(self):
        from msid import Dataset, scalar_linear_model
        dense_model = scalar_linear_model()
        mask = SparsityMask(np.ones((1, 1), dtype=int), np.ones((1, 1), dtype=int))
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

        def jac_f_x(x, u, th):
            return np.eye(n) + 0.1 * coeff / np.cosh(x)[None, :] ** 2

        dims = ModelDims(n, 1, n, n)
        dense_model = DynamicalModel(
            dims=dims, f=f, g=lambda x: x, jac_f_x=jac_f_x,
            jac_f_theta=lambda x, u, th: 0.05 * np.eye(n),
            jac_g_x=lambda x: np.eye(n))
        mask = SparsityMask(pattern, np.zeros((n, 1), dtype=int))
        masked_model = dataclasses.replace(dense_model, sparsity=mask)

        from msid import Dataset
        # the step-by-step loop, and the chunked scan past SCAN_MIN_HORIZON
        for horizon in (12, SCAN_MIN_HORIZON + 1):
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

