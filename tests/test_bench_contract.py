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
