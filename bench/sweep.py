"""The qubit-sweep program: every condition on many tiny states, in one process.

Usage: ``python3 bench/sweep.py INPUTS.json`` with ``src`` on ``PYTHONPATH``.
The inputs are written by ``jobs.sweep_inputs``; the results go to stdout as
one JSON document.  Per-call overhead dominates here, the opposite of the
``bosonic-dense`` jobs that run the same ``hilbert``/``witnesses`` code.
"""

from __future__ import annotations

import json
import sys

from entwit import (ComplexMatrix, QuantumState, bell, four_variance, heisenberg_floor,
                    mix, multipartite, ramanujan_witness, schmidt_optimal_witness,
                    spin_ops, uffink, variance_product, variance_sum)

from jobs import decode


def _row(report) -> list:
    return [report.lhs, report.rhs, report.delta, report.violated]


def _state(item) -> QuantumState:
    dims = item["dims"]
    if item["kind"] == "pure":
        return QuantumState.pure(decode(item["amps"]), dims)
    if item["kind"] == "density":
        return QuantumState.mixed(decode(item["density"]), dims)
    parts = [QuantumState.pure(decode(amps), dims) for amps in item["components"]]
    return mix(parts, item["weights"])


def run_sweep(doc: dict) -> dict:
    """Evaluate the conditions for every input; returns the results document."""
    states = []
    for item in doc["states"]:
        s = _state(item)
        da, db = item["dims"]
        A, Ap, B, Bp = (ComplexMatrix(decode(op), (d,))
                        for op, d in zip(item["ops"], (da, da, db, db)))
        alpha, beta = (complex(*pair) for pair in item["schmidt"])
        reports = [variance_product(A, Ap, B, Bp, s),
                   variance_sum(A, Ap, B, Bp, s),
                   multipartite([A, B], [Ap, Bp], s),
                   ramanujan_witness(A, Ap, B, Bp, s, 2),
                   ramanujan_witness(A, Ap, B, Bp, s, 4),
                   uffink(A, Ap, B, Bp, s),
                   four_variance(A, Ap, B, Bp, s)]
        *_, schmidt = schmidt_optimal_witness(alpha, beta)
        states.append({"reports": {r.name: _row(r) for r in reports},
                       "floor": heisenberg_floor(A, Ap, B, Bp, s),
                       "schmidt": _row(schmidt)})
    s_x, s_y, _, _ = spin_ops()
    bells = [[n] + _row(multipartite([s_x] * n, [s_y] * n, bell(n)))
             for n in doc["bell_parties"]]
    return {"states": states, "bell": bells}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        doc = json.load(handle)
    print(json.dumps(run_sweep(doc)))


if __name__ == "__main__":
    main()
