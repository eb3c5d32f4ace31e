"""The msid benchmark: closed-loop identification jobs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

Run from the root of a checkout that holds ``src/msid``.  Jobs run one at a
time, each in a fresh single-threaded process, the next one started only
after the previous one ended (a closed loop with one client).  With
``--trace 0`` jobs start while the next one is expected to end within
``--seconds`` (at least two jobs), each after one set-up probe.  The
end-to-end metrics are the median set-up time of the jobs and probes, the
fastest epoch of all jobs, the median peak memory and the share of jobs
that passed (see README.md for why the fastest epoch).  With ``--trace 1``
the run makes one untraced job and two traced jobs on the same inputs,
reports the per-layer metrics and checks that the traced counts repeat
exactly and match their closed forms.  Before the jobs, a correctness gate
checks the adjoint gradient at the first job's initial guess; after each
job its estimate is checked against the workload's theta_err tolerance.
Any failure makes the run exit with code 1.

The last line of standard output is the result as one JSON object; the line
before it is the full record (environment, per-job values, checks), which
``--out`` also appends to a file for ``--compare``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (after the path set-up above)

JOB = HERE / "job.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_JOBS = 2
# Set-up probes per job: extra processes that stop at the entry of identify,
# so that setup_s is a median over more samples than there are jobs.
SETUP_PROBES = 1
JOB_TIMEOUT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (as opposed to a failing job)."""


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu": cpu, "git_sha": sha, "git_dirty": dirty,
            "seed": args.seed, "seconds": args.seconds, "traced": bool(args.trace),
            "threads": {name: "1" for name in THREAD_VARS}}


class Runner:
    """Spawns job processes for one workload inside a scratch directory."""

    def __init__(self, workload, workdir: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.env = worker_env()
        self.count = 0

    def spawn(self, job_seed: int, *flags) -> dict:
        """Run one job process; returns its record with parent-side times."""
        self.count += 1
        tag = f"job{self.count}"
        config_path = self.workdir / f"{tag}.config.json"
        with open(config_path, "w") as handle:
            json.dump(self.workload.job_config(job_seed), handle)
        out = self.workdir / tag
        result_path = self.workdir / f"{tag}.result.json"
        log_path = self.workdir / f"{tag}.log"
        cmd = [sys.executable, str(JOB), "--workload", self.workload.name,
               "--config", str(config_path), "--out", str(out),
               "--result", str(result_path), *flags]
        timeout = max(1.0, min(JOB_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            done = time.monotonic()
        record = {"job_seed": job_seed, "flags": list(flags), "exit_code": code,
                  "wall_s": done - spawned, "errors": []}
        if code == 0 and result_path.exists():
            with open(result_path) as handle:
                result = json.load(handle)
            record.update(result)
            if "enter" in result:
                record["setup_s"] = result["enter"] - spawned
            if "exit" in result:
                record["solve_s"] = result["exit"] - result["enter"]
        else:
            with open(log_path) as handle:
                tail = handle.read()[-2000:]
            record["errors"].append(f"job exited with {code}: {tail}")
        if "--gate" not in flags and "--setup-only" not in flags:
            self.check(record, out)
        return record

    def check(self, record, out: Path) -> None:
        """The per-job correctness gate, outside every timed interval."""
        errors = record["errors"]
        if errors:
            return
        truth = self.workload.config["dataset"]["generate"]["theta_true"]
        record["theta_err"] = math.dist(record["theta_hat"], truth)
        if not record["theta_err"] <= self.workload.theta_tol:
            errors.append(f"theta_err {record['theta_err']:.3e} above the gate "
                          f"{self.workload.theta_tol:.1e}")
        if record["rejected_steps"]:
            errors.append(f"{record['rejected_steps']} rejected steps: the epoch times "
                          "assume that every rollout starts an epoch")
        history = out / "history.csv"
        record["history_bytes"] = history.stat().st_size if history.exists() else 0
        if self.workload.via_cli:
            errors.extend(check_cli_outputs(out, record, truth))


def check_cli_outputs(out: Path, record: dict, truth) -> list:
    """summary.json and history.csv must parse and agree with the run."""
    errors = []
    try:
        with open(out / "summary.json") as handle:
            summary = json.load(handle)
        with open(out / "history.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        values = [[float(v) for v in row] for row in rows[1:]]
    except (OSError, ValueError, StopIteration) as exc:
        return [f"cli outputs do not parse: {exc}"]
    if summary.get("theta_hat") != record["theta_hat"]:
        errors.append("summary.json theta_hat differs from the run")
    if not math.isclose(summary.get("theta_error", math.inf),
                        math.dist(summary["theta_hat"], truth), rel_tol=1e-12):
        errors.append("summary.json theta_error is wrong")
    width = len(rows[0]) if rows else 0
    if len(values) != record["epochs"] or any(len(row) != width for row in values):
        errors.append(f"history.csv has {len(values)} rows for {record['epochs']} epochs")
    return errors


def job_seeds(seed: int):
    """Distinct job seeds drawn from the run seed, in a fixed order."""
    index = 0
    while True:
        yield seed * 1000 + index
        index += 1


def gate(runner, job_seed) -> tuple[dict, list]:
    record = runner.spawn(job_seed, "--gate")
    errors = list(record["errors"])
    report = record.get("gate")
    if report is not None:
        if not report["adjoint_vs_naive"] <= 1e-10:
            errors.append(f"adjoint vs double sum {report['adjoint_vs_naive']:.2e} > 1e-10")
        if not report["adjoint_vs_fd"] <= 1e-5:
            errors.append(f"adjoint vs finite differences {report['adjoint_vs_fd']:.2e} > 1e-5")
    return report, errors


def median(values):
    return statistics.median(values) if values else 0.0


def ungated(jobs: list) -> dict:
    """Job-level figures that the record keeps and no bound applies to: they
    move with the share of a run spent at the machine's slow speed (see
    README.md).  Medians over the jobs; epoch quantiles over all epochs."""
    ok = [job for job in jobs if not job["errors"]]
    epochs = [ms for job in ok for ms in job["epoch_ms"]]
    figures = {
        "wall_s": (median([j["wall_s"] for j in ok]), "s"),
        "solve_s": (median([j["solve_s"] for j in ok]), "s"),
        "solve_cpu_s": (median([j["cpu_s"] for j in ok]), "s"),
        "steps_per_s": (median([(j["epochs"] + j["rejected_steps"]) * j["horizon"]
                                / j["solve_s"] for j in ok]), "1/s"),
        "theta_err": (median([j["theta_err"] for j in ok]), "1"),
        "epoch_ms.p10": (statistics.quantiles(epochs, n=10)[0], "ms"),
        "epoch_ms.p50": (statistics.median(epochs), "ms"),
        "epochs_timed": (len(epochs), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}


def end_to_end(jobs: list, probes: list) -> dict:
    ok = [job for job in jobs if not job["errors"]]
    return {
        "setup_s": median([j["setup_s"] for j in ok + probes if not j["errors"]]),
        "epoch_ms.min": min(ms for job in ok for ms in job["epoch_ms"]),
        "peak_rss_mb": median([j["maxrss_kb"] / 1024.0 for j in ok]),
        "success_ratio": len(ok) / len(jobs),
    }


def counts(job: dict) -> dict:
    """Every count of a traced job; two traced jobs on one input must agree."""
    trace = job["trace"]
    found = {f"{name}.calls": span["calls"] for name, span in trace["spans"].items()}
    found.update(chain_applications=trace["chain_applications"],
                 entry_evaluations=job["entry_evaluations"], epochs=job["epochs"],
                 rejected_steps=job["rejected_steps"], history_bytes=job["history_bytes"])
    return found


def closed_form_errors(workload, job: dict) -> list:
    c = counts(job)
    calls = lambda name: c.get(f"{name}.calls", 0)  # noqa: E731
    horizon = job["horizon"]
    gradients = calls("gradient.gradient")
    expect = {
        "model.rollout calls = epochs + rejected steps":
            (calls("model.rollout"), job["epochs"] + job["rejected_steps"]),
        "chain applications = (T-1) x gradient calls":
            (c["chain_applications"], (horizon - 1) * gradients),
        "entry evaluations = n_nz (T-1) x gradient calls":
            (c["entry_evaluations"], workload.n_nz * (horizon - 1) * gradients),
    }
    errors = [f"{rule}: got {got}, expected {want}"
              for rule, (got, want) in expect.items() if got != want]
    layers = {
        "structure.masked_jac_f_x": workload.with_sparsity,
        "structure.sparse_chain_apply": workload.with_sparsity,
        "penalties": workload.has_penalties,
        "model.numeric_jacobian": workload.numeric_jacobians,
        "cli.write_history_csv": workload.via_cli,
    }
    for name, used in layers.items():
        if used != (calls(name) > 0):
            errors.append(f"{name}: {calls(name)} calls, but the workload "
                          f"{'uses' if used else 'bypasses'} this layer")
    return errors


def per_layer(job: dict, traced: list, untraced: dict) -> dict:
    spans = job["trace"]["spans"]
    horizon = job["horizon"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return median([j["trace"]["spans"].get(name, {}).get("self_s", 0.0) for j in traced])

    def us_per_step(name):
        total = median([j["trace"]["spans"].get(name, {}).get("total_s", 0.0) for j in traced])
        return 1e6 * total / (calls(name) * horizon) if calls(name) else 0.0

    epoch_ms = sorted(ms for j in traced for ms in j["epoch_ms"])
    to_tol = job["epochs_to_tol"]
    metrics = {
        "model.rollout.calls": calls("model.rollout"),
        "model.rollout.self_s": self_s("model.rollout"),
        "model.rollout.us_per_step": us_per_step("model.rollout"),
        "systems.euler_step.calls": calls("systems.euler_step"),
        "systems.euler_step.self_s": self_s("systems.euler_step"),
        "model.jacobians.calls": calls("model.jacobians"),
        "model.jacobians.self_s": self_s("model.jacobians"),
        "gradient.gradient.calls": calls("gradient.gradient"),
        "gradient.gradient.self_s": self_s("gradient.gradient"),
        "gradient.us_per_step": us_per_step("gradient.gradient"),
        "gradient.gamma_terms.self_s": self_s("gradient.gamma_terms"),
        "gradient.chain_applications": job["trace"]["chain_applications"],
        "penalties.calls": calls("penalties"),
        "penalties.self_s": self_s("penalties"),
        "structure.masked_jac_f_x.calls": calls("structure.masked_jac_f_x"),
        "structure.masked_jac_f_x.self_s": self_s("structure.masked_jac_f_x"),
        "structure.sparse_chain_apply.calls": calls("structure.sparse_chain_apply"),
        "structure.sparse_chain_apply.self_s": self_s("structure.sparse_chain_apply"),
        "structure.entry_evaluations": job["entry_evaluations"],
        "model.numeric_jacobian.calls": calls("model.numeric_jacobian"),
        "model.numeric_jacobian.self_s": self_s("model.numeric_jacobian"),
        "optimizer.adam_step.calls": calls("optimizer.adam_step"),
        "optimizer.adam_step.self_s": self_s("optimizer.adam_step"),
        "optimizer.identify.self_s": self_s("optimizer.identify"),
        "optimizer.epoch_ms.p50": statistics.median(epoch_ms),
        "optimizer.epoch_ms.p99": epoch_ms[min(len(epoch_ms) - 1,
                                               math.ceil(0.99 * len(epoch_ms)) - 1)],
        "optimizer.epochs": job["epochs"],
        "optimizer.rejected_steps": job["rejected_steps"],
        "optimizer.epochs_to_tol": -1 if to_tol is None else to_tol,
        "optimizer.theta_err": job["theta_err"],
        "cli.import_s": median([j["import_s"] for j in traced]),
        "config.load.self_s": self_s("config.load"),
        "systems.generate_dataset.self_s": self_s("systems.generate_dataset"),
        "cli.write_history_csv.self_s": self_s("cli.write_history_csv"),
        "cli.history_bytes": job["history_bytes"],
        "trace.overhead_ratio": median([j["wall_s"] for j in traced]) / untraced["wall_s"],
    }
    return metrics


def run_workload(workload, args, bench: dict) -> dict:
    """One run of one workload; returns the full record."""
    started = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workload, workdir, started + 170.0)
        seeds = job_seeds(args.seed)
        first = next(seeds)
        gate_report, errors = gate(runner, first)
        jobs, probes = [], []
        if not args.trace:
            # Start jobs while the next one is expected to end within the run,
            # so that a run lasts about --seconds whatever the job length.
            start = time.monotonic()
            deadline = start + args.seconds
            job_seed = first
            while len(jobs) < MIN_JOBS or (
                    time.monotonic() + (time.monotonic() - start) / len(jobs) < deadline):
                probes.extend(runner.spawn(job_seed, "--setup-only")
                              for _ in range(SETUP_PROBES))
                jobs.append(runner.spawn(job_seed))
                job_seed = next(seeds)
            wanted = bench["end_to_end"]
        else:
            jobs.append(runner.spawn(first))
            jobs.append(runner.spawn(first, "--trace"))
            jobs.append(runner.spawn(first, "--trace"))
            wanted = bench["per_layer"]
        for job in jobs + probes:
            errors.extend(job["errors"])
        failed = sum(1 for job in jobs if job["errors"])
        metrics = {}
        if failed == 0:
            if not args.trace:
                metrics = end_to_end(jobs, probes)
            else:
                traced = jobs[1:]
                if counts(traced[0]) != counts(traced[1]):
                    errors.append(f"traced counts differ between two runs of one input: "
                                  f"{counts(traced[0])} vs {counts(traced[1])}")
                errors.extend(closed_form_errors(workload, traced[0]))
                metrics = per_layer(traced[0], traced, jobs[0])
        units = {m["name"]: m["unit"] for m in wanted}
        if metrics and set(metrics) != set(units):
            raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                                 "match BENCHMARK.json")
        result = {"correct": not errors, "attempted": len(jobs), "failed": failed,
                  "metrics": {name: {"value": value, "unit": units[name]}
                              for name, value in metrics.items()}}
        return {"workload": workload.name, "env": environment(args), "gate": gate_report,
                "errors": errors, "jobs": [summarize(job) for job in jobs],
                "setup_probes_s": [probe.get("setup_s") for probe in probes],
                "ungated": ungated(jobs) if metrics and not args.trace else {},
                "result": result}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(job: dict) -> dict:
    keys = ("job_seed", "flags", "exit_code", "setup_s", "wall_s", "solve_s", "cpu_s",
            "import_s", "epochs", "rejected_steps", "horizon", "theta_err",
            "epochs_to_tol", "maxrss_kb", "errors")
    return {key: job[key] for key in keys if key in job}


def emit(record: dict, out) -> None:
    print(json.dumps({"record": record}))
    if out:
        with open(out, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    for name, metric in record["result"]["metrics"].items():
        print(f"{record['workload']:>14}  {name:<38} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    for name, metric in record["ungated"].items():
        print(f"{record['workload']:>14}  {name:<38} {metric['value']:>14.6g} {metric['unit']}"
              "  (not gated)", file=sys.stderr)
    for error in record["errors"]:
        print(f"{record['workload']}: FAILED: {error}", file=sys.stderr)


# --------------------------------------------------------------------------
# Compare mode


def load_records(path) -> dict:
    """Untraced records of a result file, grouped by workload."""
    grouped = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["env"]["traced"]:
                    grouped.setdefault(record["workload"], []).append(record)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Verdict of one (workload, metric) pair of result sets.

    worse: the change's median is worse than the parent's by more than the
    bound.  better: the change wins at least nine tenths of the pairs (runs
    paired by seed, else by order; ties count for neither), over at least ten
    pairs, and the medians differ by more than the parent's quartile spread.
    unresolved: the parent's spread exceeds the bound, unless every change
    run beats every parent run.  unchanged otherwise.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (cm - pm) > p3 - p1:
        return "better"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved"
    return "unchanged"


def paired(parent_records, change_records, name):
    by_seed = {r["env"]["seed"]: r for r in change_records}
    if all(r["env"]["seed"] in by_seed for r in parent_records):
        change_records = [by_seed[r["env"]["seed"]] for r in parent_records]
    value = lambda r: r["result"]["metrics"][name]["value"]  # noqa: E731
    return [value(r) for r in parent_records], [value(r) for r in change_records]


def compare(parent_path, change_path, bench: dict) -> int:
    parent, change = load_records(parent_path), load_records(change_path)
    print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'delta':>8}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p, c = paired(parent[workload], change[workload], name)
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            print(f"{workload:<14} {name:<14} "
                  f"{pq[1]:>11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(66)
                  + f"{cq[1]:>11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(36)
                  + f" {delta:>+8.2%}  "
                  + verdict(p, c, metric["better"], metric["bound"]))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="msid benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append full records to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    # A terminated run still stops its job process and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        bench = spec()
        if args.compare:
            return compare(*args.compare, bench)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if not (ROOT / "src" / "msid" / "__init__.py").is_file():
            raise BenchmarkError(f"no msid sources under {ROOT / 'src'}")
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            record = run_workload(workloads.WORKLOADS[name], args, bench)
            emit(record, args.out)
            results.append(record["result"])
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{name}/{metric}": value for name, r in zip(names, results)
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
