"""Penalty terms: closed-form values, analytic gradients, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (DimensionMismatch, EnergyConservation, InvalidBox,
                  LowerBarrier, ParameterBox, PenaltySpec, ReluUpperBound,
                  UpperBarrier, eval_penalty, penalty_gradients, project_box)
from conftest import max_rel_gap

THETA = np.array([0.2, -0.4])


def fd_gradients(term, x, theta, h=1e-7):
    grad_x = np.array([
        (term.value(x + h * e, theta) - term.value(x - h * e, theta)) / (2 * h)
        for e in np.eye(x.size)])
    grad_theta = np.array([
        (term.value(x, theta + h * e) - term.value(x, theta - h * e)) / (2 * h)
        for e in np.eye(theta.size)])
    return grad_x, grad_theta


class TestEnergyConservation:
    def term(self):
        return EnergyConservation(energy_fn=lambda x: 0.5 * float(x @ x),
                                  reference=0.5,
                                  energy_grad=lambda x: np.asarray(x, float))

    def test_zero_at_reference(self):
        term = self.term()
        x = np.array([1.0, 0.0, 0.0])  # energy exactly 0.5
        assert eval_penalty(term, x, THETA) == 0.0
        grad_x, grad_theta = penalty_gradients(term, x, THETA)
        assert np.array_equal(grad_x, np.zeros(3))
        assert np.array_equal(grad_theta, np.zeros(2))

    def test_quadratic_growth(self):
        term = self.term()
        x = np.array([2.0, 0.0, 0.0])  # energy 2.0, deviation 1.5
        assert eval_penalty(term, x, THETA) == pytest.approx(2.25, abs=1e-14)

    def test_numeric_energy_grad_fallback(self):
        term = EnergyConservation(energy_fn=lambda x: 0.5 * float(x @ x),
                                  reference=0.1)
        x = np.array([0.4, -0.3])
        grad_x, _ = penalty_gradients(term, x, THETA)
        expected = 2.0 * (0.5 * float(x @ x) - 0.1) * x
        assert max_rel_gap(grad_x, expected) <= 1e-6


class TestBarriers:
    def test_upper_value_at_bound(self):
        term = UpperBarrier(bounds=np.array([1.0, 2.0, 3.0]), alpha=2.0)
        x = np.array([1.0, 2.0, 3.0])
        assert eval_penalty(term, x, THETA) == pytest.approx(3.0, abs=1e-14)

    def test_upper_one_past_scalar_bound(self):
        term = UpperBarrier(bounds=np.array([0.0]), alpha=2.0)
        value = eval_penalty(term, np.array([1.0]), THETA)
        assert value == pytest.approx(math.exp(4.0), rel=1e-14)

    def test_upper_gradient_at_bound(self):
        term = UpperBarrier(bounds=np.array([0.5]), alpha=1.0)
        grad_x, _ = penalty_gradients(term, np.array([0.5]), THETA)
        assert grad_x[0] == pytest.approx(2.0, abs=1e-14)

    def test_inactive_bounds_contribute_zero(self):
        term = UpperBarrier(bounds=np.array([np.inf, 0.0]), alpha=1.5)
        x = np.array([100.0, -1.0])
        only_active = math.exp(2 * 1.5 * -1.0)
        assert eval_penalty(term, x, THETA) == pytest.approx(only_active, rel=1e-14)
        grad_x, _ = penalty_gradients(term, x, THETA)
        assert grad_x[0] == 0.0

    def test_lower_inactive_bound(self):
        term = LowerBarrier(bounds=np.array([-np.inf, 0.0]), alpha=1.0)
        value = eval_penalty(term, np.array([-50.0, 2.0]), THETA)
        assert value == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_saturation_keeps_values_finite(self):
        term = UpperBarrier(bounds=np.array([0.0]), alpha=10.0)
        huge = eval_penalty(term, np.array([1e6]), THETA)
        grad_x, _ = penalty_gradients(term, np.array([1e6]), THETA)
        assert np.isfinite(huge) and huge > 1e300
        assert np.isfinite(grad_x[0]) and grad_x[0] > 0

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_upper_monotone_in_state(self, x, alpha):
        term = UpperBarrier(bounds=np.array([0.5]), alpha=alpha)
        lower_value = eval_penalty(term, np.array([x]), THETA)
        higher_value = eval_penalty(term, np.array([x + 0.25]), THETA)
        assert higher_value > lower_value

    def test_relu_variant(self):
        term = ReluUpperBound(bounds=np.array([1.0, 1.0]))
        assert eval_penalty(term, np.array([0.5, 2.5]), THETA) == pytest.approx(1.5)
        grad_x, _ = penalty_gradients(term, np.array([0.5, 2.5]), THETA)
        assert np.array_equal(grad_x, [0.0, 1.0])


class TestParameterBox:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(InvalidBox):
            ParameterBox(lower=np.array([1.0]), upper=np.array([0.0]), alpha=1.0)

    def test_symmetric_formula(self):
        term = ParameterBox(lower=np.array([-1.0]), upper=np.array([1.0]), alpha=1.0)
        value = eval_penalty(term, None, np.array([0.0]))
        assert value == pytest.approx(2 * math.exp(-2.0), rel=1e-14)


class TestGradientConsistency:
    @pytest.mark.parametrize("builder", [
        lambda rng: EnergyConservation(
            energy_fn=lambda x: 0.5 * float(x @ x),
            reference=float(rng.uniform(0, 1)),
            energy_grad=lambda x: np.asarray(x, float)),
        lambda rng: UpperBarrier(bounds=rng.uniform(1.0, 2.0, 3), alpha=0.8),
        lambda rng: LowerBarrier(bounds=rng.uniform(-2.0, -1.0, 3), alpha=0.8),
        lambda rng: ParameterBox(lower=np.array([-1.5, -1.5]),
                                 upper=np.array([1.5, 1.5]), alpha=0.7),
    ])
    def test_matches_finite_differences_at_random_points(self, builder):
        rng = np.random.default_rng(42)
        for _ in range(100):
            term = builder(rng)
            x = rng.uniform(-0.9, 0.9, 3)
            theta = rng.uniform(-0.9, 0.9, 2)
            grad_x, grad_theta = penalty_gradients(term, x, theta)
            fd_x, fd_theta = fd_gradients(term, x, theta)
            for analytic, fd in ((grad_x, fd_x), (grad_theta, fd_theta)):
                if np.max(np.abs(analytic)) < 1e-9:
                    assert np.max(np.abs(fd)) < 1e-6
                else:
                    assert max_rel_gap(analytic, fd) <= 1e-6

    def test_nonnegativity_everywhere(self):
        rng = np.random.default_rng(7)
        terms = [
            EnergyConservation(energy_fn=lambda x: float(x @ x), reference=0.3),
            UpperBarrier(bounds=np.zeros(3), alpha=1.0),
            LowerBarrier(bounds=np.zeros(3), alpha=1.0),
            ParameterBox(lower=-np.ones(2), upper=np.ones(2), alpha=1.0),
            ReluUpperBound(bounds=np.zeros(3)),
        ]
        for _ in range(50):
            x = rng.normal(size=3)
            theta = rng.normal(size=2)
            for term in terms:
                assert eval_penalty(term, x, theta) >= 0.0


class TestPenaltySpec:
    def test_parameter_terms_charged_once(self):
        box = ParameterBox(lower=np.array([-1.0]), upper=np.array([1.0]),
                           alpha=1.0, weight=0.5)
        barrier = UpperBarrier(bounds=np.array([10.0]), alpha=1.0, weight=2.0)
        spec = PenaltySpec((box, barrier))
        states = np.zeros((4, 1))
        theta = np.array([0.0])
        per_step = 2.0 * barrier.value(states[0], theta)
        once = 0.5 * box.value(None, theta)
        assert spec.total_value(states, theta) == pytest.approx(
            4 * per_step + once, rel=1e-14)

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidBox):
            PenaltySpec((UpperBarrier(bounds=np.zeros(1), alpha=1.0, weight=-0.1),))

    @pytest.mark.parametrize("term, tol", [
        (EnergyConservation(energy_fn=lambda x: 0.5 * np.sum(x * x, axis=-1),
                            reference=0.4, energy_grad=lambda x: 1.0 * x,
                            weight=0.7), 0.0),
        (EnergyConservation(energy_fn=lambda x: 0.5 * np.sum(x * x, axis=-1),
                            reference=0.4, weight=0.7), 1e-12),
        (UpperBarrier(bounds=np.array([0.5, np.inf, -0.2]), alpha=1.3, weight=0.3), 0.0),
        (LowerBarrier(bounds=np.array([-0.5, 0.1, -np.inf]), alpha=0.9, weight=2.0), 0.0),
        (ReluUpperBound(bounds=np.array([0.2, -0.1, 0.0]), weight=1.5), 0.0),
        (ParameterBox(lower=np.array([-0.1, -0.1]), upper=np.array([0.1, 0.1]),
                      alpha=2.0, weight=0.4), 0.0),
    ])
    def test_block_methods_equal_per_row_evaluation(self, term, tol):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(40, 3))
        theta = np.array([0.2, -0.4])
        spec = PenaltySpec((term,))
        for method in (spec.step_value, spec.step_grad_x, spec.step_grad_theta):
            block = method(states, theta)
            rows = np.array([method(x, theta) for x in states])
            assert block.shape == rows.shape
            if tol == 0.0:
                assert np.array_equal(block, rows)
            else:
                assert max_rel_gap(block, rows) <= tol
        per_row_total = spec.param_value(theta) + sum(spec.step_value(x, theta)
                                                      for x in states)
        assert spec.total_value(states, theta) == pytest.approx(per_row_total, rel=1e-14)

    @pytest.mark.parametrize("method", ["value", "grad_x", "grad_theta"])
    def test_term_without_one_row_per_state_is_refused(self, method):
        class PerPointTerm:
            depends_on_state = True
            weight = 1.0

            def value(self, x, theta):
                return float(np.sum(x))

            def grad_x(self, x, theta):
                return np.ones(np.shape(x)[-1])

            def grad_theta(self, x, theta):
                return np.zeros_like(theta)

        spec = PenaltySpec((PerPointTerm(),))
        call = {"value": spec.step_value, "grad_x": spec.step_grad_x,
                "grad_theta": spec.step_grad_theta}[method]
        with pytest.raises(DimensionMismatch, match=f"PerPointTerm.{method}"):
            call(np.zeros((5, 3)), np.zeros(2))


class TestProjection:
    def test_clamps_above(self):
        assert project_box(np.array([5.0]), 0.0, 1.0)[0] == 1.0

    def test_identity_inside(self):
        theta = np.array([0.25, 0.75])
        assert np.array_equal(project_box(theta, 0.0, 1.0), theta)

    def test_componentwise(self):
        result = project_box(np.array([-2.0, 0.5, 9.0]), np.zeros(3), np.ones(3))
        assert np.array_equal(result, [0.0, 0.5, 1.0])

    def test_invalid_box(self):
        with pytest.raises(InvalidBox):
            project_box(np.array([0.0]), np.array([1.0]), np.array([-1.0]))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_feasible(self, values):
        theta = np.array(values)
        lower, upper = -1.5, 2.5
        once = project_box(theta, lower, upper)
        assert np.array_equal(project_box(once, lower, upper), once)
        assert np.all(once >= lower) and np.all(once <= upper)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=4),
           st.lists(st.floats(-50, 50), min_size=2, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive_in_max_norm(self, first, second):
        n = min(len(first), len(second))
        a = np.array(first[:n])
        b = np.array(second[:n])
        pa = project_box(a, -1.0, 1.0)
        pb = project_box(b, -1.0, 1.0)
        assert np.max(np.abs(pa - pb)) <= np.max(np.abs(a - b)) + 1e-12
