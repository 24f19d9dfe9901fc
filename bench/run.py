"""entwit benchmark: end-to-end and per-module figures for three workloads.

Usage, from the repository root::

    python3 bench/run.py --workload bosonic-dense --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, every metric
    python3 bench/run.py --write-reference       # refresh bench/reference.json

One client runs the workload's jobs as a closed loop, one child process at
a time: each CLI job is a fresh interpreter running ``entwit.cli.main``
(what the installed ``entwit`` command runs), and the qubit sweep is one
library-using child.  Passes over the job list repeat while the next one,
at the median pass time so far, ends within ``--seconds``; there is always
at least one.  Every child runs with the BLAS and OpenMP thread counts
pinned to 1, and every output is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics, measured from outside the
children: ``wall_s`` and ``cpu_s`` (per job, the median over passes, summed
over the job list), ``peak_rss_mb`` (the largest ``ru_maxrss`` of any one
child, from ``wait4``), ``setup_s`` (median wall of children that only
``import entwit.cli``) and ``ok_frac`` (jobs that passed over jobs
attempted).  ``--trace 1`` runs the same jobs inside one interpreter,
alternately without and with the spans of ``tracer.py``, and reports the
per-module metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and the
settings.  The exit code is 1 when any job failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from jobs import (BENCH, JOB_TIMEOUT_S, ROOT, WORKLOADS, Job, estimate_bytes, ram_bytes,
                  workload_jobs)
from tracer import MODULES

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CLI_MAIN = ("-c", "from entwit.cli import main; main()")
IMPORT_ONLY = ("-c", "import entwit.cli")
SETUP_CHILDREN = 15
RUNNER_TIMEOUT_S = 100.0
# No child starts after DEADLINE_S and none outlives HARD_LIMIT_S, both
# counted from the start of the run, so a hung job cannot stall it.
DEADLINE_S = 140.0
HARD_LIMIT_S = 170.0
# Module self times must cover the traced wall minus one interpreter start
# to within this share of the traced wall plus this many seconds.
ACCOUNTING_SLACK = (0.05, 0.25)
REFERENCE = BENCH / "reference.json"


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


class Runner:
    """Starts children one at a time and measures each with ``wait4``."""

    def __init__(self, work: Path):
        self.work = work
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PINS)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def past_deadline(self) -> bool:
        return self.elapsed() > DEADLINE_S

    def run(self, argv: tuple[str, ...], timeout: float) -> Child:
        timeout = max(1.0, min(timeout, HARD_LIMIT_S - self.elapsed()))
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            lock = threading.Lock()
            state = {"reaped": False, "killed": False}
            begin = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)

            def kill() -> None:
                with lock:
                    if not state["reaped"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - begin
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                     timed_out=state["killed"],
                     stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                     stderr=err_path.read_text(encoding="utf-8", errors="replace"))


class Gate:
    """Counts attempted and failed jobs and keeps the first problems found."""

    def __init__(self, jobs: list[Job]):
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.sweep_doc = self.expected = None
        for job in jobs:
            if job.kind == "sweep":
                self.sweep_doc = json.loads(Path(job.argv[0]).read_text(encoding="utf-8"))
                self.expected = [checks.oracle(item) for item in self.sweep_doc["states"]]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:5]]

    def check(self, job: Job, code: int, timed_out: bool, stdout: str, stderr: str) -> None:
        if timed_out:
            problems = ["timed out"]
        elif code != 0:
            problems = [f"exit code {code}: {stderr.strip()[-300:]}"]
        elif job.kind == "sweep":
            problems = checks.check_sweep(self.sweep_doc, self.expected, stdout)
        else:
            problems = checks.check_cli(job.name, stdout, self.reference)
        self.record(job.name, problems)


def job_argv(job: Job) -> tuple[str, ...]:
    if job.kind == "sweep":
        return (str(BENCH / "sweep.py"), *job.argv)
    return (*CLI_MAIN, *job.argv)


def another_pass(runner: Runner, begin: float, pass_times: list[float], seconds: float) -> bool:
    """Start another pass only if, at the median pass time so far, it ends
    within ``seconds`` of ``begin``."""
    return (not runner.past_deadline()
            and time.monotonic() - begin + statistics.median(pass_times) <= seconds)


def measure_setup(runner: Runner) -> float:
    """Median wall of children that only import the CLI module.  The first
    child fills the bytecode cache and is not counted."""
    walls = []
    for i in range(SETUP_CHILDREN + 1):
        child = runner.run(IMPORT_ONLY, JOB_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"cannot import entwit.cli: {child.stderr.strip()[-300:]}")
        if i:
            walls.append(child.wall)
    return statistics.median(walls)


def measure_end_to_end(runner: Runner, jobs: list[Job], gate: Gate, seconds: float) -> dict:
    walls = {job.name: [] for job in jobs}
    cpus = {job.name: [] for job in jobs}
    peak_mb = 0.0
    begin = time.monotonic()
    pass_times: list[float] = []
    while not pass_times or another_pass(runner, begin, pass_times, seconds):
        start = time.monotonic()
        for job in jobs:
            if runner.past_deadline():
                gate.record(job.name, ["not started: run deadline passed"])
                continue
            child = runner.run(job_argv(job), JOB_TIMEOUT_S)
            gate.check(job, child.code, child.timed_out, child.stdout, child.stderr)
            walls[job.name].append(child.wall)
            cpus[job.name].append(child.cpu)
            peak_mb = max(peak_mb, child.rss_mb)
            if child.rss_mb * (1 << 20) > estimate_bytes(job):
                print(f"warning: {job.name} used {child.rss_mb:.0f} MB, above its "
                      f"estimate of {estimate_bytes(job) >> 20} MB", file=sys.stderr)
        pass_times.append(time.monotonic() - start)
    passes = len(pass_times)
    print(f"{passes} passes over {len(jobs)} jobs; wall samples per job: "
          f"{json.dumps({name: [round(w, 4) for w in ws] for name, ws in walls.items()})}",
          file=sys.stderr)
    return {
        "wall_s": (sum(statistics.median(w) for w in walls.values() if w), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus.values() if c), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def _module_sum(table: dict, module: str) -> float:
    return sum(v for key, v in table.items() if key.startswith(module + "."))


def layer_metrics(trace: dict, self_s: dict) -> dict:
    """Per-module metrics of one traced pass; ``self_s`` holds the medians
    over the traced passes."""
    calls, errors, sizes = trace["calls"], trace["errors"], trace["sizes"]
    out = {}
    for module in MODULES:
        out[f"{module}.calls"] = (_module_sum(calls, module), "count")
        out[f"{module}.self_s"] = (_module_sum(self_s, module), "s")
        out[f"{module}.errors"] = (errors.get(module, 0), "count")
    for key in ("hilbert.kron", "hilbert.moments", "hilbert.mix", "hilbert.commutator",
                "hilbert.matrix_new", "hilbert.matrix_op", "hilbert.state_new",
                "optimize.min_eigenvalue", "polyid.expand"):
        out[f"{key}.calls"] = (calls.get(key, 0), "count")
        out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    for key in ("optimize.psi2_scan", "polyid.parse", "polyid.verify"):
        out[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
    out["optimize.quadratic_form.calls"] = (calls.get("optimize.quadratic_form", 0), "count")
    out["hilbert.kron.bytes_out"] = (sizes["kron_bytes"], "bytes")
    out["hilbert.max_side"] = (sizes["max_side"], "rows")
    out["polyid.terms_out"] = (sizes["terms_out"], "count")
    out["cli.output_bytes"] = (sizes["output_bytes"], "bytes")
    return out


def measure_traced(runner: Runner, jobs: list[Job], gate: Gate, seconds: float,
                   setup_s: float) -> dict:
    jobs_file = runner.work / "jobs.json"
    jobs_file.write_text(json.dumps([{"name": j.name, "kind": j.kind, "argv": list(j.argv)}
                                     for j in jobs]), encoding="utf-8")
    untraced, traced = [], []
    begin = time.monotonic()
    pass_times: list[float] = []
    flags = itertools.chain(("0", "1", "1"), itertools.cycle(("0", "1")))
    for i, flag in enumerate(flags):
        if i >= 3 and not another_pass(runner, begin, pass_times, seconds):
            break
        if runner.past_deadline():
            gate.record(f"in-process pass (trace {flag})", ["not started: run deadline passed"])
            continue
        child = runner.run((str(BENCH / "inproc.py"), str(jobs_file), flag), RUNNER_TIMEOUT_S)
        pass_times.append(child.wall)
        try:
            result = json.loads(child.stdout) if child.code == 0 else None
        except ValueError:
            result = None
        if result is None:
            gate.record(f"in-process pass (trace {flag})",
                        ["timed out" if child.timed_out else
                         f"exit code {child.code}: {child.stderr.strip()[-300:]}"])
            continue
        for job in jobs:
            got = result["outputs"][job.name]
            gate.check(job, got["rc"], False, got["stdout"], got["stderr"])
        if flag == "1":
            traced.append((child.wall, result["trace"]))
        else:
            untraced.append(child.wall)
    if len(traced) < 2 or not untraced:
        raise RuntimeError("too few in-process passes completed to report a trace")
    print(f"{len(untraced)} untraced and {len(traced)} traced in-process passes",
          file=sys.stderr)

    first = traced[0][1]
    identity = [(t["calls"], t["errors"], t["sizes"]) for _, t in traced]
    gate.record("trace counts repeat", [] if all(x == identity[0] for x in identity)
                else ["call counts differ between traced passes"])
    keys = {key for _, t in traced for key in t["self_s"]}
    self_s = {key: statistics.median(t["self_s"].get(key, 0.0) for _, t in traced)
              for key in keys}
    traced_wall = statistics.median(wall for wall, _ in traced)
    unaccounted = statistics.median(wall - setup_s - sum(t["self_s"].values())
                                    for wall, t in traced)
    share, floor = ACCOUNTING_SLACK
    gate.record("trace accounting",
                [] if abs(unaccounted) <= share * traced_wall + floor else
                [f"module self times leave {unaccounted:.3f} s of {traced_wall:.3f} s "
                 f"unaccounted"])
    metrics = layer_metrics(first, self_s)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (statistics.median(untraced), "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced), "s")
    metrics["trace.unaccounted_s"] = (unaccounted, "s")
    return metrics


def environment(args, workload: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": ram_bytes() >> 20,
        "machine": platform.machine(),
        "thread_pins": PINS,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_workload(args, workload: str, trace: int, work: Path) -> tuple[dict, Gate]:
    runner = Runner(work)
    jobs = workload_jobs(workload, args.seed, work)
    gate = Gate(jobs)
    setup_s = measure_setup(runner)
    if trace:
        metrics = measure_traced(runner, jobs, gate, args.seconds, setup_s)
    else:
        metrics = measure_end_to_end(runner, jobs, gate, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["ok_frac"] = (1.0 - gate.failed / gate.attempted, "ratio")
    return metrics, gate


def _report(metrics: dict, gate: Gate, prefix: str = "") -> dict:
    return {"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
            "metrics": {f"{prefix}{name}": {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _table(workload: str, metrics: dict, gate: Gate, stream) -> None:
    fail_frac = gate.failed / gate.attempted
    print(f"== {workload}: {gate.attempted} attempted, {gate.failed} failed, "
          f"fail_frac {fail_frac:.4f}", file=stream)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}", file=stream)
    for problem in gate.problems[:20]:
        print(f"  FAIL {problem}", file=stream)


def write_reference(work: Path) -> int:
    runner = Runner(work)
    reference = {}
    for workload in ("bosonic-dense", "solve-exact"):
        for job in workload_jobs(workload, 0, work):
            child = runner.run(job_argv(job), JOB_TIMEOUT_S)
            if child.code != 0:
                print(f"{job.name}: exit code {child.code}\n{child.stderr}", file=sys.stderr)
                return 1
            doc = json.loads(child.stdout)
            problems = checks.closed_forms(job.name, doc)
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            reference[job.name] = checks.fingerprint(doc)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(reference)} reference documents to {REFERENCE}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run every CLI job once and store its output as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entwit" / "cli.py").is_file():
        print(f"error: no entwit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _dispatch(args, work)
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _dispatch(args, work: Path) -> int:
    if args.write_reference:
        return write_reference(work)
    if args.workload != "all":
        metrics, gate = run_workload(args, args.workload, args.trace, work)
        _table(args.workload, metrics, gate, sys.stderr)
        print(json.dumps({"environment": environment(args, args.workload)}))
        print(json.dumps(_report(metrics, gate)))
        return 0 if gate.failed == 0 else 1
    summary, attempted, failed = {}, 0, 0
    print(json.dumps({"environment": environment(args, "all")}))
    for workload in WORKLOADS:
        for trace in (0, 1):
            metrics, gate = run_workload(args, workload, trace, work)
            _table(f"{workload} (trace {trace})", metrics, gate, sys.stdout)
            summary.update(_report(metrics, gate, f"{workload}.")["metrics"])
            attempted += gate.attempted
            failed += gate.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
