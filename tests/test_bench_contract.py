"""The names the benchmark's tracer wraps still exist and still carry the work.

``perfbench/spans.py`` times msid from outside: it replaces module globals,
class attributes and model fields by name.  A rename inside msid would not
fail any other test, only the traced benchmark run.  This test installs the
tracer in a fresh process, runs one rollout and one gradient on each bundled
model and checks which spans fired.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HORIZON = 12
# the masked-energy horizon
SCAN_HORIZON = 400

# ADAM updates of the traced fit: each follows one rollout and one gradient,
# and one more rollout and gradient score the last update
IDENTIFY_EPOCHS = 3

SCRIPT = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from spans import Tracer

tracer = Tracer()
tracer.install()
import msid
optimizer = sys.modules["msid.optimizer"]

short, long, IDENTIFY_EPOCHS = int(sys.argv[3]), int(sys.argv[4]), int(sys.argv[5])
attitude = (np.array([0.0403, 0.0404, 0.0080]), np.array([0.02, -0.03, 0.01]))
models = {
    "euler": (msid.euler_attitude_model(dt=0.1), attitude),
    "euler-sparse": (msid.euler_attitude_model(dt=0.1, with_sparsity=True), attitude),
    "euler-sparse-scan": (msid.euler_attitude_model(dt=0.1, with_sparsity=True), attitude),
    "rk4": (msid.euler_attitude_model(dt=0.1, integrator="rk4"), attitude),
    "scalar": (msid.scalar_linear_model(), (np.array([0.8]), np.array([1.0]))),
    "euler-penalty": (msid.euler_attitude_model(dt=0.1), attitude),
}
penalties = {"euler-penalty": msid.PenaltySpec((
    msid.UpperBarrier(np.full(3, 0.05), alpha=10.0),
    msid.ParameterBox(np.full(3, 1e-3), np.ones(3), alpha=10.0)))}
rng = np.random.default_rng(0)
counts = {}
for name, (model, (theta, x0)) in models.items():
    horizon = long if name.endswith("-scan") else short
    inputs = 1e-3 * rng.normal(size=(horizon, model.dims.n_u))
    truth = msid.rollout(model, x0, theta, inputs)
    dataset = msid.Dataset(inputs, truth.predictions + 1e-3)
    spec = msid.LossSpec.scaled_identity(model.dims.n_z, horizon,
                                         penalty=penalties.get(name))
    traced = tracer.wrap_model(model)
    before = {span: stats[0] for span, stats in tracer.spans.items()}
    chains = tracer.chain_applications
    candidate = 1.05 * theta
    trajectory = optimizer.rollout(traced, x0, candidate, inputs)
    optimizer.gradient(traced, trajectory, dataset, spec, candidate)
    counts[name] = {span: stats[0] - before.get(span, 0)
                    for span, stats in tracer.spans.items()}
    counts[name]["chain_applications"] = tracer.chain_applications - chains

# a short fit of the penalized model through the traced optimizer loop
model, (theta, x0) = models["euler-penalty"]
inputs = 1e-3 * rng.normal(size=(short, 3))
dataset = msid.Dataset(inputs, msid.rollout(model, x0, theta, inputs).predictions + 1e-3)
spec = msid.LossSpec.scaled_identity(3, short, penalty=penalties["euler-penalty"])
before = {span: stats[0] for span, stats in tracer.spans.items()}
run = optimizer.identify(tracer.wrap_model(model), dataset, spec, 1.05 * theta, x0,
                         msid.IdentifyOptions(max_epochs=IDENTIFY_EPOCHS))
counts["identify"] = {span: stats[0] - before.get(span, 0)
                      for span, stats in tracer.spans.items()}
counts["identify"]["records"] = run.epochs
counts["identify"]["rejected"] = run.rejected_steps

# the same fit without the penalty and with theta steps that drive an inertia
# below zero: the first update is rejected until its learning rate is small
spec = msid.LossSpec.scaled_identity(3, short)
before = {span: stats[0] for span, stats in tracer.spans.items()}
run = optimizer.identify(tracer.wrap_model(model), dataset, spec, 1.2 * theta, x0,
                         msid.IdentifyOptions(lr_theta=5e-2, max_epochs=IDENTIFY_EPOCHS))
counts["rejecting"] = {span: stats[0] - before.get(span, 0)
                       for span, stats in tracer.spans.items()}
counts["rejecting"]["records"] = run.epochs
counts["rejecting"]["rejected"] = run.rejected_steps

# one more RK4 gradient on the model as built, none of its fields wrapped
model, (theta, x0) = models["rk4"]
inputs = 1e-3 * rng.normal(size=(short, 3))
dataset = msid.Dataset(inputs, msid.rollout(model, x0, theta, inputs).predictions + 1e-3)
before = {span: stats[0] for span, stats in tracer.spans.items()}
trajectory = optimizer.rollout(model, x0, 1.05 * theta, inputs)
optimizer.gradient(model, trajectory, dataset, msid.LossSpec.scaled_identity(3, short),
                   1.05 * theta)
counts["rk4-unwrapped"] = {span: stats[0] - before.get(span, 0)
                           for span, stats in tracer.spans.items()}
print(json.dumps(counts))
"""


@pytest.fixture(scope="module")
def span_counts():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(HORIZON), str(SCAN_HORIZON), str(IDENTIFY_EPOCHS)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def reduction_calls(horizon):
    """Batched product calls of the pairwise product of T step matrices:
    one per level (T halves, rounding down, until one matrix is left) and
    one per fold of an odd level's last matrix (every set bit of T but the
    highest).  The calls form T-1 products in all."""
    return horizon.bit_length() - 1 + bin(horizon).count("1") - 1


# (masked_jac_f_x calls, sparse_chain_apply calls, numeric_jacobian calls,
#  Jacobian-field calls) for one gradient.  The gradient calls each batched
# field the model gives, once; the masked path masks the stack of state
# Jacobians, once for the whole trajectory, and makes every product of its
# step matrices through sparse_chain_apply (np.matmul under the traced
# name).  The RK4 model gives only jac_g_x_batch and differences both
# Jacobians of f in one call.
EXPECTED = {
    "euler": (0, 0, 0, 3),
    "euler-sparse": (1, reduction_calls(HORIZON), 0, 3),
    "euler-sparse-scan": (1, reduction_calls(SCAN_HORIZON), 0, 3),
    "rk4": (0, 0, 1, 1),
    "scalar": (0, 0, 0, 3),
    "euler-penalty": (0, 0, 0, 3),
}

# euler_step calls of one rollout plus one gradient: none for the rollout,
# which runs the whole trajectory in one attitude_trajectory call, three for
# the gradient's spot check of the stored trajectory, and on RK4 one for the
# differenced Jacobians: all twelve perturbed copies of the block of
# transitions (six of the state, six of theta) stacked into one block,
# within numeric_jacobian's row budget.
EULER_STEPS = {
    "euler": 3,
    "euler-sparse": 3,
    "euler-sparse-scan": 3,
    "rk4": 3 + 1,
    "scalar": 0,
    "euler-penalty": 3,
}

# PenaltySpec calls of one gradient: total_value with its inner param_value
# and step_value for the cost, step_grad_x and step_grad_theta for the
# seeds, and param_grad; the other models carry no penalty.
PENALTY_CALLS = {"euler-penalty": 6}


@pytest.mark.parametrize("name", EXPECTED)
def test_traced_layers_fire_on_the_models_that_use_them(span_counts, name):
    counts = span_counts[name]
    assert counts["model.rollout"] == 1
    assert counts["gradient.gradient"] == 1
    assert counts["gradient.gamma_terms"] == 1
    horizon = SCAN_HORIZON if name.endswith("-scan") else HORIZON
    assert counts["chain_applications"] == horizon - 1
    assert (counts["structure.masked_jac_f_x"], counts["structure.sparse_chain_apply"],
            counts["model.numeric_jacobian"], counts["model.jacobians"]) == EXPECTED[name]
    assert counts["systems.euler_step"] == EULER_STEPS[name]
    assert counts.get("penalties", 0) == PENALTY_CALLS.get(name, 0)


def test_traced_fit_makes_one_rollout_and_one_adam_step_per_epoch(span_counts):
    # the benchmark's epoch clock marks each optimizer rollout, and its
    # per-epoch figures divide by these counts
    counts = span_counts["identify"]
    assert counts["rejected"] == 0
    assert counts["records"] == IDENTIFY_EPOCHS + 1
    assert counts["model.rollout"] == IDENTIFY_EPOCHS + 1
    assert counts["optimizer.adam_step"] == IDENTIFY_EPOCHS
    gradients = counts["gradient.gradient"]
    assert gradients == IDENTIFY_EPOCHS + 1
    assert counts["systems.euler_step"] == EULER_STEPS["euler-penalty"] * gradients
    assert counts["penalties"] == PENALTY_CALLS["euler-penalty"] * gradients


def test_traced_fit_with_rejections_makes_one_rollout_per_evaluation(span_counts):
    # the closed forms perfbench/run.py checks: a rejected candidate costs one
    # more rollout and one more ADAM step, and no gradient
    counts = span_counts["rejecting"]
    epochs, rejected = counts["records"], counts["rejected"]
    assert epochs == IDENTIFY_EPOCHS + 1 and rejected > 0
    assert counts["model.rollout"] == epochs + rejected
    assert counts["optimizer.adam_step"] == epochs - 1 + rejected
    assert counts["gradient.gradient"] == epochs


def test_untraced_rk4_gradient_takes_the_traced_path(span_counts):
    # the tracer wraps the Jacobian fields a model gives; a gradient whose
    # path depended on whether a field is wrapped would time another path
    # under the tracer than without it
    untraced = span_counts["rk4-unwrapped"]
    assert untraced.get("model.jacobians", 0) == 0
    assert untraced["model.numeric_jacobian"] == span_counts["rk4"]["model.numeric_jacobian"]
    assert untraced["systems.euler_step"] == span_counts["rk4"]["systems.euler_step"] == 3 + 1


def load_benchmark_driver():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_untraced_masked_energy_job_counts_entries_and_passes_the_gate(tmp_path):
    # an untraced job builds the masked model itself and reads msid's entry
    # counter; the traced tests above take neither path
    run = load_benchmark_driver()
    runner = run.Runner(run.workloads.WORKLOADS["masked-energy"], tmp_path,
                        time.monotonic() + 300)
    record = runner.spawn(3000)
    assert record["exit_code"] == 0
    assert record["errors"] == []
    assert record["entry_evaluations"] == 9 * 399 * record["epochs"]
    report, errors = run.gate(runner, 3000)
    assert errors == []
    assert report["adjoint_vs_naive"] <= 1e-10
    assert report["adjoint_vs_fd"] <= 1e-5
