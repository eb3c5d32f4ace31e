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
# the masked-energy horizon, above SCAN_MIN_HORIZON: the backward pass runs
# as a chunked scan in chunks of max(6, round(sqrt(T) / 2)) = 10 steps
SCAN_HORIZON = 400
SCAN_CHUNK = 10

SCRIPT = r"""
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from spans import Tracer

tracer = Tracer()
tracer.install()
import msid
optimizer = sys.modules["msid.optimizer"]

short, long = int(sys.argv[3]), int(sys.argv[4])
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
print(json.dumps(counts))
"""


@pytest.fixture(scope="module")
def span_counts():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"),
         str(HORIZON), str(SCAN_HORIZON)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


# (masked_jac_f_x calls, sparse_chain_apply calls, numeric_jacobian calls,
#  Jacobian-field calls) for one gradient.  The gradient calls only the three
# batched fields; the masked path takes its state Jacobian from the
# jac_f_x_batch call, once for the whole trajectory, zeroed outside the mask,
# and makes its products through sparse_chain_apply (np.matmul under the
# traced name): one per transition on the step-by-step loop, or two per step
# of a chunk on the scan (the adjoint rows and the transfer products, one
# call for all chunks); the RK4 model differences f once per batched map.
EXPECTED = {
    "euler": (0, 0, 0, 3),
    "euler-sparse": (1, HORIZON - 1, 0, 3),
    "euler-sparse-scan": (1, 2 * SCAN_CHUNK, 0, 3),
    "rk4": (0, 0, 2, 3),
    "scalar": (0, 0, 0, 3),
    "euler-penalty": (0, 0, 0, 3),
}

# euler_step calls of one rollout plus one gradient: none for the rollout,
# which runs the whole trajectory in one attitude_trajectory call, three for
# the gradient's spot check of the stored trajectory, and on RK4 one per side
# and perturbed column of each differenced map (2 * (3 + 3)), each on the
# whole block of transitions.
EULER_STEPS = {
    "euler": 3,
    "euler-sparse": 3,
    "euler-sparse-scan": 3,
    "rk4": 3 + 12,
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
