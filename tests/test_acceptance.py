"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from msid import (Dataset, LossSpec, NoiseSpec, ParameterBox, PenaltySpec,
                  UpperBarrier, euler_attitude_model, fd_gradient, generate_dataset, gradient,
                  gradient_naive, identify, rollout)
from msid.optimizer import IdentifyOptions
from msid.structure import entry_evaluations
from conftest import (ATTITUDE_DT, ATTITUDE_NOISE, ATTITUDE_OMEGA0,
                      ATTITUDE_THETA, attitude_dataset, perturbed_init,
                      random_instance, report_gap)

REPRODUCTION_SEEDS = (1, 2, 3, 9, 11)
COMPARISON_SEEDS = (2, 6, 11)


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


def reproduction_options(**overrides):
    defaults = dict(lr_theta=1e-3, lr_x0=1e-6, max_epochs=3000)
    defaults.update(overrides)
    return IdentifyOptions(**defaults)


@pytest.fixture(scope="module")
def reproduction_runs():
    """The five seeded unknown-disturbance runs shared by criteria 3 and 4."""
    runs = []
    started = time.perf_counter()
    for seed in REPRODUCTION_SEEDS:
        model, dataset = attitude_dataset(seed=seed, nominal_inputs=True)
        spec = LossSpec.scaled_identity(3, 50)
        theta0, x00 = perturbed_init(seed)
        run = identify(model, dataset, spec, theta0, x00, reproduction_options())
        runs.append(run)
    return runs, time.perf_counter() - started


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst_analytic = 0.0
    worst_fd = 0.0
    kinds = [None, "energy", "upper", "lower", "box"]
    for index in range(50):
        model, dataset, spec, theta, x0 = random_instance(
            5000 + index, penalty_kind=kinds[index % len(kinds)])
        trajectory = rollout(model, x0, theta, dataset.inputs)
        adjoint = gradient(model, trajectory, dataset, spec, theta)
        naive = gradient_naive(model, trajectory, dataset, spec, theta)
        fd = fd_gradient(model, x0, theta, dataset, spec, step=1e-6)
        worst_analytic = max(worst_analytic, report_gap(adjoint, naive))
        worst_fd = max(worst_fd, report_gap(adjoint, fd))
    elapsed = time.perf_counter() - started
    report(1, worst_analytic <= 1e-10 and worst_fd <= 1e-5 and elapsed < 10.0,
           f"50 instances, adjoint-vs-naive {worst_analytic:.2e} (tol 1e-10), "
           f"adjoint-vs-fd {worst_fd:.2e} (tol 1e-5), {elapsed:.1f}s (< 10s)")


def test_criterion_2_noiseless_recovery():
    started = time.perf_counter()
    model = euler_attitude_model(dt=ATTITUDE_DT)
    noise = NoiseSpec(torque_mean=ATTITUDE_NOISE["torque_mean"],
                      torque_std=0.0, obs_std=0.0, seed=2)
    dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, 50,
                               noise, dt=ATTITUDE_DT)
    spec = LossSpec.scaled_identity(3, 50)
    theta0, _ = perturbed_init(7, fraction_theta=0.3, fraction_x0=0.0)
    options = reproduction_options(max_epochs=20000, cost_tol=1e-26)
    run = identify(model, dataset, spec, theta0, ATTITUDE_OMEGA0, options)
    relative = (np.linalg.norm(run.theta_hat - ATTITUDE_THETA)
                / np.linalg.norm(ATTITUDE_THETA))
    elapsed = time.perf_counter() - started
    report(2, relative <= 1e-3 and elapsed < 30.0,
           f"relative parameter error {relative:.2e} (tol 1e-3) after "
           f"{run.epochs} epochs, {elapsed:.1f}s (< 30s)")


def test_criterion_3_reproduction_error(reproduction_runs):
    runs, elapsed = reproduction_runs
    errors = sorted(float(np.linalg.norm(run.theta_hat - ATTITUDE_THETA))
                    for run in runs)
    median = errors[len(errors) // 2]
    report(3, median <= 5e-3 and elapsed < 120.0,
           f"median parameter error {median:.2e} over seeds "
           f"{REPRODUCTION_SEEDS} (tol 5e-3), {elapsed:.1f}s (< 120s); "
           f"errors {['%.2e' % e for e in errors]}")


def test_criterion_4_loss_curve_behavior(reproduction_runs):
    runs, _ = reproduction_runs
    worst_ratio = 0.0
    trend_ok = True
    for run in runs:
        costs = np.array([record.cost for record in run.history])
        worst_ratio = max(worst_ratio, costs[-1] / costs[0])
        tenth = max(1, len(costs) // 10)
        trend_ok = trend_ok and costs[-tenth:].min() <= costs[:tenth].min()
    report(4, worst_ratio < 0.10 and trend_ok,
           f"worst final/initial cost ratio {worst_ratio:.3f} (< 0.10), "
           f"late-epoch minimum below early-epoch minimum: {trend_ok}")


def test_criterion_5_horizon_sweep():
    seed = 1
    model = euler_attitude_model(dt=ATTITUDE_DT)
    theta0, x00 = perturbed_init(seed)
    cases = {}
    for horizon in (10, 25, 50, 100):
        noise = NoiseSpec(seed=seed, **ATTITUDE_NOISE)
        raw = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, horizon,
                               noise, dt=ATTITUDE_DT)
        dataset = Dataset(np.full_like(raw.inputs, ATTITUDE_NOISE["torque_mean"]),
                          raw.observations.copy(), ATTITUDE_DT)
        cases[horizon] = (dataset, LossSpec.scaled_identity(3, horizon))
    # the wall time of a horizon is the fastest of nine identical runs, the
    # horizons taking turns, so that a burst of machine speed or slowness
    # inside one run cannot reorder horizons whose costs differ by a tenth
    # (on a 2-core VM, T=100 read below T=50 in 5 of 9 runs of this test with
    # the fastest of five, and in none of 6 alone with the fastest of nine)
    results = {horizon: (float("inf"), None) for horizon in cases}
    for _ in range(9):
        for horizon, (dataset, spec) in cases.items():
            started = time.perf_counter()
            run = identify(model, dataset, spec, theta0, x00,
                           reproduction_options(max_epochs=1500))
            elapsed = time.perf_counter() - started
            results[horizon] = (min(elapsed, results[horizon][0]),
                                float(np.linalg.norm(run.theta_hat - ATTITUDE_THETA)))
    times = [results[h][0] for h in (10, 25, 50, 100)]
    monotone = all(earlier < later for earlier, later in zip(times, times[1:]))
    error_improves = results[50][1] <= results[10][1]
    report(5, monotone and error_improves,
           "wall time strictly increasing "
           f"{['%.2f' % t for t in times]}s, error T=50 {results[50][1]:.2e} "
           f"<= error T=10 {results[10][1]:.2e}: {error_improves}")


def test_criterion_6_analytic_vs_numeric_gradient():
    analytic_errors = []
    fd_errors = []
    for seed in COMPARISON_SEEDS:
        model, dataset = attitude_dataset(seed=seed, nominal_inputs=True)
        spec = LossSpec.scaled_identity(3, 50)
        theta0, x00 = perturbed_init(seed)
        for method, bucket in (("adjoint", analytic_errors), ("fd", fd_errors)):
            options = reproduction_options(
                max_epochs=100, gradient_method=method, fd_step=1e-4)
            run = identify(model, dataset, spec, theta0, x00, options)
            bucket.append(float(np.linalg.norm(run.theta_hat - ATTITUDE_THETA)))
    median_analytic = sorted(analytic_errors)[1]
    median_fd = sorted(fd_errors)[1]
    report(6, median_analytic <= median_fd,
           f"median error with exact gradient {median_analytic:.4e} <= "
           f"finite-difference gradient (h=1e-4) {median_fd:.4e} over seeds "
           f"{COMPARISON_SEEDS}")


def test_criterion_7_penalty_efficacy():
    seed = 1
    model, dataset = attitude_dataset(seed=seed, nominal_inputs=True)
    model_plain = euler_attitude_model(dt=ATTITUDE_DT)
    noise = NoiseSpec(seed=seed, **ATTITUDE_NOISE)
    real = generate_dataset(model_plain, ATTITUDE_OMEGA0, ATTITUDE_THETA, 50,
                            noise, dt=ATTITUDE_DT)
    true_traj = rollout(model_plain, ATTITUDE_OMEGA0, ATTITUDE_THETA, real.inputs)
    bound = 1.5 * float(np.abs(true_traj.states).max())
    theta0, x00 = perturbed_init(seed)

    def max_violation(run):
        final = rollout(model, run.x0_hat, run.theta_hat, dataset.inputs)
        return max(0.0, float((final.states - bound).max()))

    plain_spec = LossSpec.scaled_identity(3, 50)
    plain_run = identify(model, dataset, plain_spec, theta0, x00,
                         reproduction_options(max_epochs=2000))
    barrier = UpperBarrier(bounds=np.full(3, bound), alpha=2000.0, weight=1e-9)
    barrier_spec = LossSpec(np.eye(3), 50, PenaltySpec((barrier,)))
    barrier_run = identify(model, dataset, barrier_spec, theta0, x00,
                           reproduction_options(max_epochs=2000))
    violation_ok = max_violation(barrier_run) <= max_violation(plain_run)

    box = (0.5 * ATTITUDE_THETA, 1.5 * ATTITUDE_THETA)
    box_spec = LossSpec(np.eye(3), 50, PenaltySpec((
        ParameterBox(lower=box[0], upper=box[1], alpha=500.0, weight=1e-9),)))
    box_run = identify(model, dataset, box_spec, theta0, x00,
                       reproduction_options(max_epochs=2000, box=box))
    feasible = all(np.all(record.theta >= box[0]) and np.all(record.theta <= box[1])
                   for record in box_run.history)
    report(7, violation_ok and feasible,
           f"barrier max-violation {max_violation(barrier_run):.2e} <= "
           f"unconstrained {max_violation(plain_run):.2e}; "
           f"all boxed iterates feasible: {feasible}")


def test_criterion_8_complexity():
    # backward pass cost is horizon-shaped, not parameter-count-shaped
    counts = {}
    for n_theta, seed in ((2, 81), (4, 82)):
        rng = np.random.default_rng(seed)
        from conftest import random_smooth_model
        model = random_smooth_model(rng, 3, 1, 2, n_theta)
        inputs = 0.2 * rng.normal(size=(20, 1))
        theta = rng.uniform(-0.5, 0.5, n_theta)
        x0 = rng.uniform(-0.5, 0.5, 3)
        trajectory = rollout(model, x0, theta, inputs)
        dataset = Dataset(inputs, trajectory.predictions + 0.01, 1.0)
        spec = LossSpec.scaled_identity(2, 20)
        counts[n_theta] = gradient(model, trajectory, dataset, spec,
                                   theta).chain_applications
    chain_ok = counts[2] == counts[4] == 19

    model = euler_attitude_model(dt=ATTITUDE_DT)
    noise = NoiseSpec(seed=5, **ATTITUDE_NOISE)
    dataset = generate_dataset(model, ATTITUDE_OMEGA0, ATTITUDE_THETA, 400,
                               noise, dt=ATTITUDE_DT)
    theta = ATTITUDE_THETA * 1.05

    # one masked gradient at T=20 keeps n_nz entries of each of the T-1
    # transition Jacobians; the mask is full, so its bytes are the dense ones
    masked_model = euler_attitude_model(dt=ATTITUDE_DT, with_sparsity=True)
    mask, short = masked_model.sparsity, dataset.prefix(20)
    short_trajectory = rollout(model, ATTITUDE_OMEGA0, theta, short.inputs)
    short_spec = LossSpec.scaled_identity(3, 20)
    dense = gradient(model, short_trajectory, short, short_spec, theta)
    entry_evaluations.reset()
    masked = gradient(masked_model, short_trajectory, short, short_spec, theta)
    kept = entry_evaluations.count
    masked_ok = (kept == mask.n_nz * 19 and mask.n_nz == 9
                 and masked.grad_theta.tobytes() == dense.grad_theta.tobytes()
                 and masked.grad_x0.tobytes() == dense.grad_x0.tobytes())

    spec = LossSpec.scaled_identity(3, 400)
    trajectory = rollout(model, ATTITUDE_OMEGA0, theta, dataset.inputs)
    start = time.perf_counter()
    gradient(model, trajectory, dataset, spec, theta)
    adjoint_time = time.perf_counter() - start
    start = time.perf_counter()
    gradient_naive(model, trajectory, dataset, spec, theta)
    naive_time = time.perf_counter() - start
    ratio = naive_time / adjoint_time
    report(8, chain_ok and masked_ok and ratio > 5.0,
           f"chain applications {counts} (= T-1 = 19 for both parameter "
           f"counts); masked entries at T=20 {kept} = n_nz {mask.n_nz} x 19, "
           f"gradient bytes equal to the dense model's; naive/adjoint wall-time ratio at T=400: {ratio:.0f}x "
           f"(> 5x)")
