"""One benchmark job in a fresh process.

    python3 perfbench/job.py --workload NAME --config CFG.json --out DIR \
        --result RESULT.json [--trace | --gate | --setup-only]

Runs one identification of the workload on the given msid config and writes
its timestamps, CPU time, the duration of each epoch, its result and (with
``--trace``) the per-layer spans to RESULT.json.  ``cli-readme`` jobs run
the ``msid`` command line in this process through ``msid.cli.main``; the
other workloads call ``msid.optimizer.identify`` directly.  With ``--gate`` the job instead
checks the adjoint gradient at the initial guess against the double sum and
finite differences and records the gaps.  With ``--setup-only`` it stops
at the entry of ``identify`` (a set-up probe).

Timestamps are ``time.monotonic()``, the same clock as in the parent, so
the parent can subtract its own spawn time from them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (after the path set-up above)
from spans import Tracer, epoch_ms, install_epoch_clock  # noqa: E402

# Horizons of the gradient gate.  The double sum costs O(T^2) chain products.
# Central differences with msid's default step lose accuracy as the horizon
# grows: on long-horizon the relative gap to the exact gradient is 1.5e-6 at
# 50 steps, 1.2e-5 at 200 and 3.7e-5 at 3200 (tolerance 1e-5).
NAIVE_PREFIX = 200
FD_PREFIX = 50


def import_msid():
    """Import msid from this checkout; returns its modules by name and the
    import time.  (``msid.gradient`` is the function, so modules are taken
    from ``sys.modules``.)"""
    start = time.perf_counter()
    import msid.cli
    elapsed = time.perf_counter() - start
    expected = (ROOT / "src" / "msid").resolve()
    if Path(msid.__file__).resolve().parent != expected:
        raise SystemExit(f"msid imported from {msid.__file__}, not from {expected}")
    names = ("cli", "config", "gradient", "model", "optimizer", "structure", "systems")
    return SimpleNamespace(**{name: sys.modules[f"msid.{name}"] for name in names}), elapsed


class SetupDone(BaseException):
    """Raised at the entry of ``identify`` by a set-up probe.  A BaseException,
    so that no handler in msid.cli takes it for a failure of the run."""


class TimedIdentify:
    """Wall and CPU time around one call of ``identify``; keeps the result.

    A set-up probe (``setup_only``) records the entry time and stops there.
    """

    def __init__(self, identify, setup_only=False):
        self.identify = identify
        self.setup_only = setup_only
        self.record = {}
        self.run = None

    def __call__(self, model, dataset, spec, theta0, x0, options=None):
        enter = time.monotonic()
        if self.setup_only:
            self.record = {"enter": enter}
            raise SetupDone
        cpu = time.process_time()
        self.run = self.identify(model, dataset, spec, theta0, x0, options)
        cpu = time.process_time() - cpu
        self.record = {"enter": enter, "exit": time.monotonic(), "cpu_s": cpu,
                       "horizon": len(dataset)}
        return self.run


def build_model(msid, workload, config, tracer):
    if not workload.with_sparsity:
        return msid.config.build_model(config.model)
    model = msid.systems.euler_attitude_model(
        dt=config.model.dt, integrator=config.model.integrator, with_sparsity=True)
    return tracer.wrap_model(model) if tracer is not None else model


def prepare(msid, workload, config_path, tracer):
    """Model, dataset, loss, initial guess and options, the way msid.cli
    prepares them, with the workload's model."""
    config = msid.config.RunConfig.from_json(config_path)
    model = build_model(msid, workload, config, tracer)
    raw, truth = msid.config.make_dataset(config, model)
    dataset = msid.config.identification_inputs(config, raw, model)
    penalty = msid.config.build_penalty_spec(config, model, dataset)
    spec = msid.config.build_loss(config, model, len(dataset), penalty)
    theta0, x0 = msid.config.build_init(config, truth, model)
    return model, dataset, spec, theta0, x0, msid.config.build_options(config)


def run_job(msid, workload, args, tracer) -> tuple[int, dict]:
    identify = msid.optimizer.identify
    if tracer is not None:
        identify = tracer.wrap("optimizer.identify", identify)
    timed = TimedIdentify(identify, setup_only=args.setup_only)
    starts = tracer.epoch_starts if tracer is not None else install_epoch_clock(
        msid.optimizer, [])
    msid.structure.entry_evaluations.reset()
    code = 0
    try:
        if workload.via_cli:
            msid.cli.identify = timed
            code = msid.cli.main(["identify", "--config", args.config, "--out", args.out])
        else:
            model, dataset, spec, theta0, x0, options = prepare(
                msid, workload, args.config, tracer)
            timed(model, dataset, spec, theta0, x0, options)
    except SetupDone:
        return 0, dict(timed.record)
    record = dict(timed.record, exit_code=code,
                  entry_evaluations=msid.structure.entry_evaluations.count)
    record["epoch_ms"] = epoch_ms(starts)
    run = timed.run
    if run is not None:
        truth = workload.config["dataset"]["generate"]["theta_true"]
        errors = [math.dist(r.theta, truth) for r in run.history]
        record.update(epochs=run.epochs, rejected_steps=run.rejected_steps,
                      theta_hat=[float(v) for v in run.theta_hat],
                      epochs_to_tol=next((i for i, e in enumerate(errors)
                                          if e <= workload.theta_tol), None))
    return code, record


def gradient_gate(msid, workload, config_path) -> dict:
    """Adjoint gradient at the job's initial guess vs the O(T^2) double sum
    on the first ``NAIVE_PREFIX`` steps and vs central finite differences
    on the first ``FD_PREFIX`` steps."""
    import numpy as np
    model, dataset, spec, theta0, x0, options = prepare(msid, workload, config_path, None)

    def gaps(horizon, reference):
        horizon = min(horizon, len(dataset))
        prefix = dataset.prefix(horizon) if horizon < len(dataset) else dataset
        prefix_spec = msid.gradient.LossSpec(spec.Q, horizon, spec.penalty)
        trajectory = msid.model.rollout(model, x0, theta0, prefix.inputs)
        a = msid.gradient.gradient(model, trajectory, prefix, prefix_spec, theta0)
        if reference == "fd":
            b = msid.gradient.fd_gradient(model, x0, theta0, prefix, prefix_spec,
                                          step=options.fd_step)
        else:
            b = msid.gradient.gradient_naive(model, trajectory, prefix, prefix_spec, theta0)
        u = np.concatenate([a.grad_theta, a.grad_x0])
        v = np.concatenate([b.grad_theta, b.grad_x0])
        return float(np.max(np.abs(u - v)) / max(np.max(np.abs(u)), np.max(np.abs(v))))

    return {"adjoint_vs_naive": gaps(NAIVE_PREFIX, "naive"),
            "adjoint_vs_fd": gaps(FD_PREFIX, "fd")}


def trace_report(tracer) -> dict:
    spans = {name: {"calls": calls, "total_s": total * 1e-9, "self_s": own * 1e-9}
             for name, (calls, total, own) in tracer.spans.items()}
    return {"spans": spans, "chain_applications": tracer.chain_applications}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gate", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    started = time.monotonic()
    msid, import_s = import_msid()
    result = {"started": started, "import_s": import_s}
    if args.gate:
        result["gate"] = gradient_gate(msid, workload, args.config)
        code = 0
    else:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        code, record = run_job(msid, workload, args, tracer)
        result.update(record)
        if tracer is not None:
            result["trace"] = trace_report(tracer)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
