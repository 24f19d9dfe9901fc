"""Correctness gate: every job's output against the checked-in reference,
the closed forms the documents carry, and an independent numpy oracle for
the qubit sweep.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from jobs import decode

REL_TOL = 1e-9
ABS_TOL = 1e-12
LONG_LIST = 64       # longer float lists are stored as a sample
SAMPLES = 33
VIOLATION_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(abs_tol, rel * abs(b))


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def fingerprint(obj: Any) -> Any:
    """A document as stored in the reference: long number lists become
    their length, sum and an evenly spaced sample."""
    if isinstance(obj, dict):
        return {key: fingerprint(value) for key, value in obj.items()}
    if isinstance(obj, list):
        if len(obj) > LONG_LIST and all(_is_number(x) for x in obj):
            step = (len(obj) - 1) / (SAMPLES - 1)
            picks = sorted({round(i * step) for i in range(SAMPLES)})
            return {"__list__": len(obj), "sum": math.fsum(obj),
                    "sample": [[i, obj[i]] for i in picks]}
        return [fingerprint(x) for x in obj]
    return obj


def compare(ref: Any, out: Any, path: str = "") -> list[str]:
    """Every key of the reference must be present and agree.  Numbers agree
    to 1e-9 relative or 1e-12 absolute; booleans, strings and None exactly.
    Keys the output adds are allowed."""
    if isinstance(ref, dict) and "__list__" in ref:
        if not isinstance(out, list) or len(out) != ref["__list__"]:
            return [f"{path}: expected a list of {ref['__list__']} numbers"]
        problems = [f"{path}[{i}]: {out[i]!r} != {v!r}"
                    for i, v in ref["sample"] if not (_is_number(out[i]) and close(out[i], v))]
        total = math.fsum(out)
        if not close(total, ref["sum"]):
            problems.append(f"{path}: sum {total!r} != {ref['sum']!r}")
        return problems
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key not in out:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(value, out[key], f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        return [p for i, (r, o) in enumerate(zip(ref, out))
                for p in compare(r, o, f"{path}[{i}]")]
    if _is_number(ref):
        ok = _is_number(out) and close(out, ref)
    else:
        ok = type(out) is type(ref) and out == ref
    return [] if ok else [f"{path}: {out!r} != {ref!r}"]


def _psi2_values(grid: np.ndarray) -> np.ndarray:
    c1 = np.sqrt(np.maximum(0.0, 1.0 - grid * grid))
    return 0.25 / (0.25 + 6.0 * c1 * c1 - grid * c1)


def closed_forms(name: str, doc: dict) -> list[str]:
    """Checks that hold whatever the reference says."""
    res = doc["results"]
    problems = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{name}: {what}")

    if name.startswith("squeezed-"):
        need(close(res["report"]["V"], res["closed_form_v"], rel=1e-6, abs_tol=0.0),
             f"V {res['report']['V']} != closed form {res['closed_form_v']}")
    elif name == "witness-variance_product":
        lam2 = doc["inputs"]["state"]["params"]["lambda"] ** 2
        closed = ((1.0 + lam2) / (1.0 - lam2)) ** 2
        need(close(res["report"]["V"], closed, rel=1e-6, abs_tol=0.0),
             f"V {res['report']['V']} != closed form {closed}")
    elif name.startswith("mixture-"):
        need(close(res["report"]["lhs"], res["closed_form_lhs"], rel=0.0, abs_tol=1e-9),
             f"lhs {res['report']['lhs']} != closed form {res['closed_form_lhs']}")
    elif name.startswith("cmatrix-"):
        need(abs(res["lambda_min"] + 0.04495) <= 5e-4,
             f"lambda_min {res['lambda_min']} outside -0.04495 +/- 5e-4")
    elif name.startswith("psi2-"):
        scan = res["scan"]
        need(abs(scan["best"] - 1.197) <= 2e-3, f"best {scan['best']} != 1.197 +/- 2e-3")
        need(abs(scan["argbest"] - 0.997) <= 2e-3,
             f"argbest {scan['argbest']} != 0.997 +/- 2e-3")
        grid = np.asarray(scan["grid"], dtype=float)
        n = doc["inputs"]["scan"]
        need(grid.size == n and np.allclose(grid, np.linspace(0, 1, n + 2)[1:-1],
                                            rtol=REL_TOL, atol=ABS_TOL), "grid")
        need(np.allclose(scan["values"], _psi2_values(grid), rtol=REL_TOL, atol=ABS_TOL),
             "values differ from (1/4)/(1/4 + Q(c0, sqrt(1 - c0^2)))")
    elif name == "schmidt":
        alpha = complex(*doc["inputs"]["alpha"])
        beta = complex(*doc["inputs"]["beta"])
        report = res["report"]
        need(close(report["lhs"], 1.0 - 4.0 * abs(alpha * beta) ** 2), "lhs != 1 - 4|ab|^2")
        need(close(report["rhs"], 1.0), "rhs != 1")
    elif name.startswith("bell-12"):
        report = res["report"]
        need(abs(report["lhs"]) <= 1e-7 and close(report["rhs"], 1.0) and report["violated"],
             "even-party Bell state must give lhs 0, rhs 1, violated")
    elif name.startswith(("identity-", "eval-")):
        value = res.get("valid", res.get("equal"))
        need(value is True, f"identity not confirmed ({value!r})")
    return problems


def check_cli(name: str, stdout: str, reference: dict) -> list[str]:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"{name}: output is not JSON ({exc})"]
    if name not in reference:
        return [f"{name}: no reference stored"]
    problems = [f"{name}{p}" for p in compare(reference[name], doc)]
    return problems + closed_forms(name, doc)


# --- qubit-sweep oracle ---------------------------------------------------

CONDITIONS = ("variance_product", "variance_sum", "multipartite", "ramanujan_2",
              "ramanujan_4", "uffink", "four_variance")
_LEQ = {"ramanujan_2", "ramanujan_4", "uffink"}   # violated when lhs > rhs


def _density(item: dict) -> np.ndarray:
    if item["kind"] == "pure":
        v = decode(item["amps"])
        return np.outer(v, v.conj())
    if item["kind"] == "density":
        return decode(item["density"])
    return sum(w * np.outer(v, v.conj())
               for w, v in zip(item["weights"], map(decode, item["components"])))


def oracle(item: dict) -> dict:
    """lhs/rhs of every condition for one sweep input, by plain numpy on
    the density matrix and explicit Kronecker products."""
    rho = _density(item)
    A, Ap, B, Bp = (decode(op) for op in item["ops"])

    def mean(M):
        return float(np.einsum("ij,ji->", rho, M).real)

    def var(M):
        return max(mean(M @ M) - mean(M) ** 2, 0.0)

    AB, ABp, ApB, ApBp = np.kron(A, B), np.kron(A, Bp), np.kron(Ap, B), np.kron(Ap, Bp)
    m_ab, m_abp, m_apb, m_apbp = mean(AB), mean(ABp), mean(ApB), mean(ApBp)
    comm = abs(mean(np.kron(A @ Ap - Ap @ A, B @ Bp - Bp @ B)))
    product = math.sqrt(var(AB)) * math.sqrt(var(ApBp))
    sums = (ABp - ApB, ApB + ApBp + AB, ApBp + AB + ABp)

    def ramanujan(n):
        lhs = (m_ab + m_abp + m_apb) ** n + (m_abp + m_apb + m_apbp) ** n + (m_ab - m_apbp) ** n
        return lhs, sum(mean(np.linalg.matrix_power(M, n)) for M in sums)

    values = {
        "variance_product": (product, 0.25 * comm),
        "variance_sum": (var(AB) + var(ApBp), 0.5 * comm),
        "multipartite": (product, comm / 4.0),
        "ramanujan_2": ramanujan(2),
        "ramanujan_4": ramanujan(4),
        "uffink": ((m_ab - m_apbp) ** 2 + (m_abp + m_apb) ** 2,
                   mean(np.kron(A @ A + Ap @ Ap, B @ B + Bp @ Bp))),
        "four_variance": (var(AB) + var(ABp) + var(ApB) + var(ApBp), comm),
    }
    alpha, beta = (complex(*pair) for pair in item["schmidt"])
    return {"values": values,
            "floor": 0.5 * abs(np.einsum("ij,ji->", rho, AB @ ApBp - ApBp @ AB)),
            "schmidt": (1.0 - 4.0 * abs(alpha * beta) ** 2, 1.0)}


def _sweep_close(a: float, b: float) -> bool:
    # The values are O(1); a variance product carries the square root of
    # the round-off in each variance, hence an absolute floor of 1e-9.
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_sweep(doc: dict, expected: list[dict], stdout: str) -> list[str]:
    """The sweep's results against the oracle, the separability rule and
    the known Bell and Schmidt values."""
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"qubit-sweep: output is not JSON ({exc})"]
    if len(out.get("states", ())) != len(doc["states"]):
        return ["qubit-sweep: wrong number of state results"]
    problems = []
    for i, (item, want, got) in enumerate(zip(doc["states"], expected, out["states"])):
        if sorted(got["reports"]) != sorted(CONDITIONS):
            problems.append(f"state {i}: conditions {sorted(got['reports'])}")
            continue
        for name, (lhs, rhs, delta, violated) in got["reports"].items():
            w_lhs, w_rhs = want["values"][name]
            w_delta = (w_lhs - w_rhs) if name in _LEQ else (w_rhs - w_lhs)
            if not (_sweep_close(lhs, w_lhs) and _sweep_close(rhs, w_rhs)):
                problems.append(f"state {i} {name}: ({lhs}, {rhs}) != ({w_lhs}, {w_rhs})")
            if item["separable"] and violated:
                problems.append(f"state {i} {name}: separable state flagged violated "
                                f"(delta {delta})")
            if abs(w_delta - VIOLATION_TOL) > 1e-6 and violated != (w_delta > VIOLATION_TOL):
                problems.append(f"state {i} {name}: violated={violated}, delta {w_delta}")
        if not _sweep_close(got["floor"], want["floor"]):
            problems.append(f"state {i} heisenberg_floor: {got['floor']} != {want['floor']}")
        lhs, rhs, _, violated = got["schmidt"]
        w_lhs, w_rhs = want["schmidt"]
        if not (_sweep_close(lhs, w_lhs) and _sweep_close(rhs, w_rhs) and violated):
            problems.append(f"state {i} schmidt: ({lhs}, {rhs}, {violated}) != "
                            f"({w_lhs}, {w_rhs}, True)")
    bells = {row[0]: row[1:] for row in out.get("bell", ())}
    for n in doc["bell_parties"]:
        if n not in bells:
            problems.append(f"bell {n}: missing")
            continue
        lhs, rhs, _, violated = bells[n]
        # GHZ states: <X..X> = 1 so lhs = 0; |<[X,Y]..>|/2^n = 1 for even n, 0 for odd.
        want_rhs = 1.0 if n % 2 == 0 else 0.0
        if abs(lhs) > 1e-7 or abs(rhs - want_rhs) > 1e-12 or violated != (n % 2 == 0):
            problems.append(f"bell {n}: ({lhs}, {rhs}, {violated}) != (0, {want_rhs})")
    return problems
