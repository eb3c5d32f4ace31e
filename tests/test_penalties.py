"""Penalty terms: closed-form values, analytic gradients, projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (DimensionMismatch, EnergyConservation, InvalidBox, LossSpec,
                  LowerBarrier, ParameterBox, PenaltySpec, ReluUpperBound,
                  UpperBarrier, fd_gradient, gradient, project_box, rollout)
from conftest import max_rel_gap, random_instance, report_gap

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
        assert term.value(x, THETA) == 0.0
        assert np.array_equal(term.grad_x(x, THETA), np.zeros(3))
        # free of the parameters: no grad_theta, which counts as zero
        assert not hasattr(term, "grad_theta")

    def test_quadratic_growth(self):
        term = self.term()
        x = np.array([2.0, 0.0, 0.0])  # energy 2.0, deviation 1.5
        assert term.value(x, THETA) == pytest.approx(2.25, abs=1e-14)

    def test_numeric_fallback_names_an_energy_fn_that_is_not_row_wise(self):
        # the error names the map at fault
        term = EnergyConservation(energy_fn=lambda x: np.sum(x * x), reference=0.0,
                                  energy_grad=lambda x: 2.0 * x)
        with pytest.raises(DimensionMismatch,
                           match=r"energy_fn .*\(5, 3\) .*\(5,\), got \(\)"):
            term.grad_x(np.ones((5, 3)), np.ones(3))

    @pytest.mark.parametrize("energy_grad, got", [
        pytest.param(lambda x: x[0], r"\(3,\)", id="first-row"),
        pytest.param(lambda x: x.sum(axis=-1), r"\(4,\)", id="row-sums"),
    ])
    def test_gradient_of_another_shape_is_refused_naming_energy_grad(self, energy_grad, got):
        term = EnergyConservation(energy_fn=lambda x: 0.5 * np.sum(x * x, axis=-1),
                                  reference=0.5, energy_grad=energy_grad)
        with pytest.raises(DimensionMismatch, match=rf"energy_grad .*\(4, 3\) .*got {got}"):
            term.grad_x(np.arange(12.0).reshape(4, 3), THETA)


class TestBarriers:
    def test_upper_value_at_bound(self):
        term = UpperBarrier(bounds=np.array([1.0, 2.0, 3.0]), alpha=2.0)
        x = np.array([1.0, 2.0, 3.0])
        assert term.value(x, THETA) == pytest.approx(3.0, abs=1e-14)

    def test_upper_one_past_scalar_bound(self):
        term = UpperBarrier(bounds=np.array([0.0]), alpha=2.0)
        value = term.value(np.array([1.0]), THETA)
        assert value == pytest.approx(math.exp(4.0), rel=1e-14)

    def test_upper_gradient_at_bound(self):
        term = UpperBarrier(bounds=np.array([0.5]), alpha=1.0)
        grad_x = term.grad_x(np.array([0.5]), THETA)
        assert grad_x[0] == pytest.approx(2.0, abs=1e-14)

    def test_inactive_bounds_contribute_zero(self):
        term = UpperBarrier(bounds=np.array([np.inf, 0.0]), alpha=1.5)
        x = np.array([100.0, -1.0])
        only_active = math.exp(2 * 1.5 * -1.0)
        assert term.value(x, THETA) == pytest.approx(only_active, rel=1e-14)
        grad_x = term.grad_x(x, THETA)
        assert grad_x[0] == 0.0

    def test_lower_inactive_bound(self):
        term = LowerBarrier(bounds=np.array([-np.inf, 0.0]), alpha=1.0)
        value = term.value(np.array([-50.0, 2.0]), THETA)
        assert value == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_saturation_keeps_values_finite(self):
        term = UpperBarrier(bounds=np.array([0.0]), alpha=10.0)
        huge = term.value(np.array([1e6]), THETA)
        grad_x = term.grad_x(np.array([1e6]), THETA)
        assert np.isfinite(huge) and huge > 1e300
        assert np.isfinite(grad_x[0]) and grad_x[0] > 0

    # the two barriers' closed forms, written out separately: exponent,
    # saturated at 700, and the sign of the state gradient
    SEPARATE_FORMULAS = {
        UpperBarrier: (lambda x, b, alpha: 2.0 * alpha * (x - b), 2.0),
        LowerBarrier: (lambda x, b, alpha: 2.0 * alpha * (b - x), -2.0),
    }

    @pytest.mark.parametrize("cls", SEPARATE_FORMULAS)
    def test_block_equals_the_separate_formulas_bit_for_bit(self, cls):
        rng = np.random.default_rng(11)
        alpha = 37.5
        x = rng.normal(scale=0.05, size=(40, 3))
        x[::6] *= 1e5  # rows whose exponent passes the cap on either side
        bounds = np.array([0.02, np.inf, -np.inf])
        exponent, factor = self.SEPARATE_FORMULAS[cls]
        expected = np.exp(np.minimum(exponent(x, bounds, alpha), 700.0))
        assert np.any(expected == np.exp(700.0)) and np.any(expected == 0.0)
        term = cls(bounds=bounds, alpha=alpha)
        assert np.array_equal(term.value(x, THETA), np.sum(expected, axis=-1))
        assert np.array_equal(term.grad_x(x, THETA), factor * alpha * expected)

    @given(st.floats(-3.0, 3.0), st.floats(0.1, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_upper_monotone_in_state(self, x, alpha):
        term = UpperBarrier(bounds=np.array([0.5]), alpha=alpha)
        lower_value = term.value(np.array([x]), THETA)
        higher_value = term.value(np.array([x + 0.25]), THETA)
        assert higher_value > lower_value

    def test_relu_variant(self):
        term = ReluUpperBound(bounds=np.array([1.0, 1.0]))
        assert term.value(np.array([0.5, 2.5]), THETA) == pytest.approx(1.5)
        grad_x = term.grad_x(np.array([0.5, 2.5]), THETA)
        assert np.array_equal(grad_x, [0.0, 1.0])


class TestParameterBox:
    def test_rejects_crossed_bounds(self):
        with pytest.raises(InvalidBox):
            ParameterBox(lower=np.array([1.0]), upper=np.array([0.0]), alpha=1.0)

    def test_symmetric_formula(self):
        term = ParameterBox(lower=np.array([-1.0]), upper=np.array([1.0]), alpha=1.0)
        value = term.value(None, np.array([0.0]))
        assert value == pytest.approx(2 * math.exp(-2.0), rel=1e-14)


class TestTermParameters:
    """A term refuses, when it is built, a parameter that would make the cost
    NaN everywhere, naming itself and the field."""

    @pytest.mark.parametrize("build,name,field", [
        pytest.param(lambda: UpperBarrier(np.full(3, np.nan), alpha=1.0),
                     "UpperBarrier", "bounds", id="upper-nan-bounds"),
        pytest.param(lambda: LowerBarrier(np.array([0.0, np.nan]), alpha=1.0),
                     "LowerBarrier", "bounds", id="lower-nan-bounds"),
        pytest.param(lambda: ReluUpperBound(np.array([np.nan, 1.0])),
                     "ReluUpperBound", "bounds", id="relu-nan-bounds"),
        pytest.param(lambda: ParameterBox(np.zeros(2), np.array([1.0, np.nan]), alpha=1.0),
                     "ParameterBox", "upper", id="box-nan-upper"),
        pytest.param(lambda: UpperBarrier(0.0, alpha=1.0),
                     "UpperBarrier", "bounds", id="scalar-bounds"),
        pytest.param(lambda: ReluUpperBound(np.zeros((2, 3))),
                     "ReluUpperBound", "bounds", id="2d-bounds"),
        pytest.param(lambda: ParameterBox(0.0, 1.0, alpha=1.0),
                     "ParameterBox", "lower", id="scalar-box"),
        pytest.param(lambda: UpperBarrier(np.zeros(3), alpha=np.inf),
                     "UpperBarrier", "alpha", id="upper-inf-alpha"),
        pytest.param(lambda: LowerBarrier(np.zeros(3), alpha=np.nan),
                     "LowerBarrier", "alpha", id="lower-nan-alpha"),
        pytest.param(lambda: ParameterBox(np.zeros(2), np.ones(2), alpha=np.inf),
                     "ParameterBox", "alpha", id="box-inf-alpha"),
        pytest.param(lambda: EnergyConservation(lambda x: x.sum(axis=-1), reference=np.nan,
                                                energy_grad=np.ones_like),
                     "EnergyConservation", "reference", id="nan-reference"),
        pytest.param(lambda: EnergyConservation(lambda x: x.sum(axis=-1), reference=-np.inf,
                                                energy_grad=np.ones_like),
                     "EnergyConservation", "reference", id="inf-reference"),
        pytest.param(lambda: EnergyConservation(lambda x: x.sum(axis=-1), reference=0.0,
                                                energy_grad=None),
                     "EnergyConservation", "energy_grad", id="none-energy-grad"),
        pytest.param(lambda: EnergyConservation(lambda x: x.sum(axis=-1), reference=0.0,
                                                energy_grad=np.ones(3)),
                     "EnergyConservation", "energy_grad", id="array-energy-grad"),
    ])
    def test_bad_parameter_is_refused_naming_term_and_field(self, build, name, field):
        with pytest.raises(InvalidBox, match=rf"^penalty term {name}: {field} must be"):
            build()

    def test_infinite_bounds_switch_components_off(self):
        x, theta = np.array([5.0, -5.0]), np.array([5.0, -5.0])
        off = np.array([np.inf, np.inf])
        for term in (UpperBarrier(off, alpha=1.0), LowerBarrier(-off, alpha=1.0),
                     ReluUpperBound(off), ParameterBox(-off, off, alpha=1.0)):
            assert term.value(x, theta) == 0.0

    @pytest.mark.parametrize("build, fields", [
        pytest.param(lambda lo, up: UpperBarrier(lo, alpha=1.0), ("bounds",), id="upper"),
        pytest.param(lambda lo, up: LowerBarrier(lo, alpha=1.0), ("bounds",), id="lower"),
        pytest.param(lambda lo, up: ReluUpperBound(lo), ("bounds",), id="relu"),
        pytest.param(lambda lo, up: ParameterBox(lo, up, alpha=1.0), ("lower", "upper"),
                     id="box"),
    ])
    def test_bounds_are_kept_as_read_only_copies(self, build, fields):
        lower, upper = np.zeros(3), np.ones(3)
        term = build(lower, upper)
        # the caller's arrays stay writeable, and writing them reaches no term
        lower[:], upper[:] = 5.0, -5.0
        for name, given in zip(fields, (np.zeros(3), np.ones(3))):
            assert np.array_equal(getattr(term, name), given)
            assert not getattr(term, name).flags.writeable


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
            # a derivative a term does not define is zero: a parameter term
            # has no grad_x, a state term free of the parameters no grad_theta
            grad_x = term.grad_x(x, theta) if hasattr(term, "grad_x") else np.zeros(3)
            grad_theta = (term.grad_theta(x, theta) if hasattr(term, "grad_theta")
                          else np.zeros(2))
            fd_x, fd_theta = fd_gradients(term, x, theta)
            for analytic, fd in ((grad_x, fd_x), (grad_theta, fd_theta)):
                if np.max(np.abs(analytic)) < 1e-9:
                    assert np.max(np.abs(fd)) < 1e-6
                else:
                    assert max_rel_gap(analytic, fd) <= 1e-6

    def test_nonnegativity_everywhere(self):
        rng = np.random.default_rng(7)
        terms = [
            EnergyConservation(energy_fn=lambda x: float(x @ x), reference=0.3,
                               energy_grad=lambda x: 2.0 * x),
            UpperBarrier(bounds=np.zeros(3), alpha=1.0),
            LowerBarrier(bounds=np.zeros(3), alpha=1.0),
            ParameterBox(lower=-np.ones(2), upper=np.ones(2), alpha=1.0),
            ReluUpperBound(bounds=np.zeros(3)),
        ]
        for _ in range(50):
            x = rng.normal(size=3)
            theta = rng.normal(size=2)
            for term in terms:
                assert term.value(x, theta) >= 0.0


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

    @pytest.mark.parametrize("weight", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("term", [
        lambda w: UpperBarrier(bounds=np.zeros(3), alpha=1.0, weight=w),
        lambda w: ParameterBox(lower=-np.ones(2), upper=np.ones(2), alpha=1.0, weight=w),
        lambda w: EnergyConservation(energy_fn=lambda x: x.sum(axis=-1), reference=0.0,
                                     energy_grad=np.ones_like, weight=w),
    ], ids=["UpperBarrier", "ParameterBox", "EnergyConservation"])
    def test_rejects_a_non_finite_weight_naming_the_term(self, term, weight):
        # an infinite weight times a term's zero rows would be NaN
        built = term(weight)
        with pytest.raises(InvalidBox, match=f"penalty term {type(built).__name__}: weight"):
            PenaltySpec((built,))

    def test_methods_equal_the_sum_over_terms_bit_for_bit(self):
        class ThetaTerm:
            # a state term that depends on the parameters, so its rows count
            weight = 0.25

            def value(self, x, theta):
                return np.sum(x, axis=-1) * theta[0]

            def grad_x(self, x, theta):
                return np.full(np.shape(x), theta[0])

            def grad_theta(self, x, theta):
                rows = np.zeros(np.shape(x)[:-1] + np.shape(theta))
                rows[..., 0] = np.sum(x, axis=-1)
                return rows

        rng = np.random.default_rng(11)
        states = rng.normal(size=(40, 3))
        theta = np.array([0.2, -0.4])
        terms = (
            UpperBarrier(bounds=np.array([0.5, np.inf, -0.2]), alpha=1.3, weight=0.3),
            # far below the states: its exponentials underflow, grad_x rows are -0.0
            LowerBarrier(bounds=np.full(3, -600.0), alpha=1.0, weight=2.0),
            EnergyConservation(energy_fn=lambda x: 0.5 * np.sum(x * x, axis=-1),
                               reference=0.4, energy_grad=lambda x: 1.0 * x, weight=0.7),
            ReluUpperBound(bounds=np.array([0.2, -0.1, 0.0]), weight=1.5),
            ThetaTerm(),
            ParameterBox(lower=np.array([-0.1, -0.1]), upper=np.array([0.1, 0.1]),
                         alpha=2.0, weight=0.4),
        )
        spec = PenaltySpec(terms)

        def per_term_sum(method, tail):
            total = np.zeros(states.shape[:-1] + tail)
            for term in terms:
                if hasattr(term, "grad_x") and hasattr(term, method):
                    total += term.weight * getattr(term, method)(states, theta)
            return total

        param_value = sum(t.weight * t.value(None, theta)
                          for t in terms if not hasattr(t, "grad_x"))
        total_value = float(param_value + per_term_sum("value", ()).sum())
        assert np.float64(spec.total_value(states, theta)).tobytes() == \
            np.float64(total_value).tobytes()
        for method, tail, got in (
                ("grad_x", (3,), spec.step_grad_x(states, theta)),
                ("grad_theta", (2,), spec.step_grad_theta(states, theta))):
            expected = per_term_sum(method, tail)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), method
        assert spec.step_grad_theta(states, theta)[:, 0].any()

    def test_state_term_without_grad_theta_is_free_of_the_parameters(self):
        class Quadratic:
            weight = 0.05

            def value(self, x, theta):
                return np.sum(x * x, axis=-1)

            def grad_x(self, x, theta):
                return 2.0 * x

        penalty = PenaltySpec((Quadratic(),))
        states = np.random.default_rng(5).normal(size=(6, 3))
        assert np.array_equal(penalty.step_grad_theta(states, THETA), np.zeros((6, 2)))
        model, dataset, spec, theta, x0 = random_instance(1003)
        spec = LossSpec(spec.Q, spec.horizon, penalty)
        report = gradient(model, rollout(model, x0, theta, dataset.inputs), dataset, spec, theta)
        assert report.penalty_total > 0.0
        assert report_gap(report, fd_gradient(model, x0, theta, dataset, spec)) <= 1e-6

    def test_terms_that_are_not_an_iterable_are_refused(self):
        with pytest.raises(InvalidBox, match=r"^penalty terms must be an iterable, got None"):
            PenaltySpec(None)

    def test_a_term_without_a_callable_value_is_refused(self):
        with pytest.raises(InvalidBox, match=r"^penalty term int: value must be callable"):
            PenaltySpec((1,))

    def test_a_parameter_term_without_grad_theta_is_refused(self):
        class ValueOnly:
            weight = 1.0

            def value(self, x, theta):
                return float(np.sum(theta))

        with pytest.raises(InvalidBox,
                           match=r"^penalty term ValueOnly: grad_theta must be callable"):
            PenaltySpec((ValueOnly(),))

    @pytest.mark.parametrize("term, tol", [
        (EnergyConservation(energy_fn=lambda x: 0.5 * np.sum(x * x, axis=-1),
                            reference=0.4, energy_grad=lambda x: 1.0 * x,
                            weight=0.7), 0.0),
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

    @pytest.mark.parametrize("lower,upper", [(np.zeros(2), np.ones(2)), (0.0, np.ones(2)),
                                             (np.zeros((2, 3)), 1.0)])
    def test_bounds_of_another_shape_are_named(self, lower, upper):
        with pytest.raises(DimensionMismatch, match=r"bounds of shapes .* do not fit "
                                                    r"parameters of shape \(3,\)"):
            project_box(np.ones(3), lower, upper)

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
