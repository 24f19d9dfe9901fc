"""The names the benchmark's tracer (``bench/tracer.py``) wraps still exist.

``python3 bench/run.py --trace 1`` installs the tracer over the package; a
renamed function would break it.  The tracer patches modules in place, so it
runs in a child process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

CHILD = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from entwit import bell, spin_ops, variance_product
s_x, s_y, _, _ = spin_ops()
variance_product(s_x, s_y, s_x, s_y, bell(2))
print(json.dumps(tracer.calls))
"""


def test_tracer_installs_and_counts_a_condition():
    out = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                         timeout=120, check=True)
    calls = json.loads(out.stdout)
    assert calls["witnesses.variance_product"] == 1
    assert calls["states.bell"] == 1


BIPARTITE_CHILD = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
from tracer import Tracer
tracer = Tracer()
tracer.install()
from entwit import (bell, four_variance, heisenberg_floor, ramanujan_witness, spin_ops,
                    uffink, variance_product, variance_sum)
s_x, s_y, _, _ = spin_ops()
s = bell(2)
before = dict(tracer.calls)
quad = (s_x, s_y, s_x, s_y)
for condition in (variance_product, variance_sum, uffink, four_variance, heisenberg_floor):
    condition(*quad, s)
for n in (2, 4):
    ramanujan_witness(*quad, s, n)
print(json.dumps({{"before": before, "after": tracer.calls}}))
"""


def test_tracer_counts_every_bipartite_condition_on_one_state():
    out = subprocess.run([sys.executable, "-c", BIPARTITE_CHILD], capture_output=True,
                         text=True, timeout=120, check=True)
    doc = json.loads(out.stdout)
    calls = doc["after"]
    for name in ("variance_product", "variance_sum", "uffink", "four_variance",
                 "heisenberg_floor"):
        assert calls[f"witnesses.{name}"] == 1, name
    assert calls["witnesses.ramanujan_witness"] == 2
    # the table kept on the state is no QuantumState method: the conditions
    # call none, so the traced state group counts only the construction
    assert calls["hilbert.state_new"] == doc["before"]["hilbert.state_new"]


SWEEP_CHILD = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import entwit.witnesses as witnesses
from jobs import sweep_inputs
from sweep import run_sweep
compute, tables = witnesses._moment_table, []
def counted(*args, **kwargs):
    tables.append(1)
    return compute(*args, **kwargs)
witnesses._moment_table = counted
doc = sweep_inputs(1)
run_sweep(doc)
print(json.dumps({{"tables": len(tables), "states": len(doc["states"])}}))
"""


def test_sweep_pass_builds_one_table_per_state_and_witness_state():
    # each sweep state meets six bipartite conditions and the Heisenberg floor
    # on one quadruple, and the tuned Schmidt witness builds a state of its
    # own: 2 tables per state, where one per call would be 8
    out = subprocess.run([sys.executable, "-c", SWEEP_CHILD], capture_output=True, text=True,
                         timeout=120, check=True)
    doc = json.loads(out.stdout)
    assert doc["states"] == 240
    assert doc["tables"] == 2 * doc["states"]


INPROC_CHILD = f"""
import json, subprocess, sys
from pathlib import Path
sys.path.insert(0, {str(BENCH)!r})
import checks
from jobs import sweep_inputs
work, doc = Path(sys.argv[1]), sweep_inputs(1)
(work / "inputs.json").write_text(json.dumps(doc))
(work / "jobs.json").write_text(json.dumps(
    [{{"name": "qubit-sweep", "kind": "sweep", "argv": [str(work / "inputs.json")]}}]))
traced = subprocess.run([sys.executable, {str(BENCH / "inproc.py")!r},
                         str(work / "jobs.json"), "1"], capture_output=True, text=True,
                        timeout=100)
if traced.returncode != 0:
    sys.exit(traced.stderr)
out = json.loads(traced.stdout)
got = out["outputs"]["qubit-sweep"]
expected = [checks.oracle(item) for item in doc["states"]]
print(json.dumps({{"rc": got["rc"], "stderr": got["stderr"],
                   "problems": checks.check_sweep(doc, expected, got["stdout"]),
                   "calls": out["trace"]["calls"]}}))
"""


def test_traced_inproc_pass_runs_the_sweep(tmp_path):
    # one traced in-process pass of the qubit-sweep workload, as
    # ``bench/run.py --workload qubit-sweep --trace 1`` runs it
    out = subprocess.run([sys.executable, "-c", INPROC_CHILD, str(tmp_path)],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["rc"] == 0, doc["stderr"]
    assert doc["problems"] == []
    assert any(key.startswith("witnesses.") for key in doc["calls"])


CLI_CHILD = f"""
import json, subprocess, sys
from pathlib import Path
sys.path.insert(0, {str(BENCH)!r})
import checks
from jobs import workload_jobs
work = Path(sys.argv[1])
jobs = [job for workload in ("bosonic-dense", "solve-exact")
        for job in workload_jobs(workload, 1, work)]
(work / "jobs.json").write_text(json.dumps(
    [{{"name": j.name, "kind": j.kind, "argv": list(j.argv)}} for j in jobs]))
traced = subprocess.run([sys.executable, {str(BENCH / "inproc.py")!r},
                         str(work / "jobs.json"), "1"], capture_output=True, text=True,
                        timeout=250)
if traced.returncode != 0:
    sys.exit(traced.stderr)
out = json.loads(traced.stdout)
reference = json.loads(Path({str(BENCH / "reference.json")!r}).read_text(encoding="utf-8"))
outputs = out["outputs"]
print(json.dumps({{"jobs": len(jobs),
                   "failed": {{name: got["stderr"] for name, got in outputs.items()
                              if got["rc"] != 0}},
                   "problems": [problem for name, got in outputs.items()
                                for problem in checks.check_cli(name, got["stdout"],
                                                                reference)],
                   "calls": out["trace"]["calls"]}}))
"""


def test_traced_inproc_pass_runs_the_cli_workloads(tmp_path):
    # one traced in-process pass of the bosonic-dense and solve-exact jobs,
    # as ``bench/run.py --workload ... --trace 1`` runs each of them
    out = subprocess.run([sys.executable, "-c", CLI_CHILD, str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["jobs"] == 22
    assert doc["failed"] == {}
    assert doc["problems"] == []
    for layer in ("polyid", "optimize", "states", "witnesses"):
        assert any(key.startswith(f"{layer}.") and count > 0
                   for key, count in doc["calls"].items()), layer
