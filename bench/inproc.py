"""Run a workload's jobs in one interpreter, optionally traced.

Usage: ``python3 bench/inproc.py JOBS.json TRACE`` with ``src`` on
``PYTHONPATH``; ``TRACE`` is 1 to install the per-module spans, 0 to run
without them (the tracing overhead is the difference).  CLI jobs go through
``entwit.cli.run`` with stdout captured.  Prints one JSON document with each
job's exit code and output, and the span aggregates of a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if sys.argv[2] == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    # Imported after install(), so the sweep binds the wrapped functions.
    import entwit.cli
    import sweep

    outputs = {}
    output_bytes = 0
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        try:
            if job["kind"] == "sweep":
                with open(job["argv"][0], encoding="utf-8") as handle:
                    doc = json.load(handle)
                out.write(json.dumps(sweep.run_sweep(doc)))
                code = 0
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = entwit.cli.run(job["argv"])
                output_bytes += len(out.getvalue().encode("utf-8"))
        except Exception:
            code = 1
            err.write(traceback.format_exc())
        outputs[job["name"]] = {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    result = {"outputs": outputs}
    if tracer is not None:
        result["trace"] = {"calls": tracer.calls, "errors": tracer.errors,
                           "self_s": tracer.self_s,
                           "sizes": {"kron_bytes": tracer.kron_bytes,
                                     "max_side": tracer.max_side,
                                     "terms_out": tracer.terms_out,
                                     "output_bytes": output_bytes}}
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
