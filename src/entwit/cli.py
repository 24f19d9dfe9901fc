"""Command-line front end.

Every subcommand prints a single JSON document to stdout:

    {"command": ..., "inputs": ..., "results": ..., "meta": ...}

with ``meta`` holding the package version, the active tolerance table and
any Fock cutoffs that were resolved.  Diagnostics go to stderr.  Exit codes:
0 success, 1 computation/validation error, 2 usage error.  Floats are
rounded to 12 significant digits so identical invocations produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from . import __version__
from .config import DEFAULT

if TYPE_CHECKING:
    from .hilbert import ComplexMatrix, QuantumState

__all__ = ["run", "main"]


def _comma_floats(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _complex_pair(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im' with numeric parts, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entwit",
        description="Variance and moment conditions for entanglement detection; "
                    "JSON reports on stdout.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "cmatrix",
        help="minimal eigenvalue of the truncated quadratic-form matrix C_N")
    p.add_argument("--n", type=int, required=True,
                   help="truncation order N (matrix size N+1)")
    p.add_argument("--p", type=float, default=1.0,
                   help="mixing weight used for the reported V_max (default 1)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="eigenvalue bisection tolerance (default 1e-10)")

    p = sub.add_parser(
        "psi2",
        help="scan the two-coefficient family for its strongest violation")
    p.add_argument("--scan", type=int, required=True, metavar="GRIDSIZE",
                   help="number of interior grid points (at least 3)")

    p = sub.add_parser(
        "mixture",
        help="variance-product report for a vacuum-mixed pair superposition")
    p.add_argument("--p", type=float, required=True,
                   help="weight of the superposition in the mixture")
    p.add_argument("--coeffs", type=_comma_floats, required=True, metavar="C0,C1,...",
                   help="real coefficients of the paired-level superposition")
    p.add_argument("--cutoff", type=int, default=None,
                   help="Fock cutoff per mode (default: smallest adequate)")

    p = sub.add_parser(
        "squeezed",
        help="variance-product report for the two-mode squeezed state "
             "with paired-level spin operators")
    p.add_argument("--lambda", dest="lam", type=float, required=True, metavar="LAMBDA",
                   help="squeezing parameter, |lambda| < 1")
    p.add_argument("--cutoff", type=int, default=None,
                   help="Fock cutoff per mode (default: tail below 1e-12)")

    p = sub.add_parser("bell", help="entanglement conditions on the n-party Bell state")
    p.add_argument("--parties", type=int, required=True,
                   help="number of two-level parties (at least 2)")
    p.add_argument("--condition", required=True,
                   choices=("variance", "ramanujan", "uffink"),
                   help="which condition to evaluate")
    p.add_argument("--n", type=int, choices=(2, 4), default=2,
                   help="power for the ramanujan condition (default 2)")

    p = sub.add_parser(
        "schmidt",
        help="optimally tuned variance-product witness for alpha|00> + beta|11>")
    p.add_argument("--alpha", type=_complex_pair, required=True, metavar="RE,IM")
    p.add_argument("--beta", type=_complex_pair, required=True, metavar="RE,IM")

    p = sub.add_parser("identity", help="verify a built-in polynomial identity")
    p.add_argument("--name", required=True, choices=("complex_norm", "ramanujan"),
                   help="identity family")
    p.add_argument("--n", type=int, default=None,
                   help="power for the ramanujan family")

    p = sub.add_parser("eval", help="decide whether two polynomial expressions are equal")
    p.add_argument("--expr-lhs", required=True, metavar="EXPR",
                   help="left expression in variables a, a', b, b'")
    p.add_argument("--expr-rhs", required=True, metavar="EXPR",
                   help="right expression in variables a, a', b, b'")

    p = sub.add_parser(
        "witness",
        help="evaluate a condition for a state spec and operator spec from JSON files")
    p.add_argument("--state", required=True, metavar="FILE",
                   help="JSON file with {\"family\", \"params\", \"cutoff\"}")
    p.add_argument("--ops", required=True, metavar="FILE",
                   help="JSON file naming builtin operators per factor")
    p.add_argument("--condition", required=True,
                   choices=("variance_product", "variance_sum", "multipartite",
                            "ramanujan", "uffink", "four_variance"))
    return parser


def _run_cmatrix(args) -> tuple[dict, dict, dict]:
    from .optimize import c_matrix, min_eigenvalue, vmax_from_lambda

    lam, vec = min_eigenvalue(c_matrix(args.n), args.tol)
    results = {
        "lambda_min": lam,
        "eigenvector_head": [float(x) for x in vec[:8]],
        "vmax": vmax_from_lambda(lam, args.p),
    }
    return {"n": args.n, "p": args.p, "tol": args.tol}, results, {}


def _run_psi2(args) -> tuple[dict, dict, dict]:
    from .optimize import psi2_scan

    result = psi2_scan(args.scan)
    return {"scan": args.scan}, {"scan": result.to_json()}, {}


def _run_mixture(args) -> tuple[dict, dict, dict]:
    from .operators import quadratures
    from .optimize import quadratic_form
    from .states import vacuum_mixture
    from .witnesses import variance_product

    state = vacuum_mixture(args.p, args.coeffs, args.cutoff)
    dim = state.dims[0]
    quad = quadratures(dim)
    report = variance_product(quad.x, quad.p, quad.p, quad.x, state)
    inputs: dict[str, Any] = {"p": args.p, "coeffs": list(args.coeffs)}
    if args.cutoff is not None:
        inputs["cutoff"] = args.cutoff
    results = {
        "report": report.to_json(),
        "closed_form_lhs": 0.25 + args.p * quadratic_form(args.coeffs),
    }
    return inputs, results, {"state": dim}


def _run_squeezed(args) -> tuple[dict, dict, dict]:
    from .operators import block_spin
    from .states import squeezed_vacuum
    from .witnesses import variance_product

    state = squeezed_vacuum(args.lam, args.cutoff)
    dim = state.dims[0]
    X, Y = block_spin(dim)[:2]
    report = variance_product(X, Y, X, Y, state)
    lam2 = args.lam * args.lam
    inputs: dict[str, Any] = {"lambda": args.lam}
    if args.cutoff is not None:
        inputs["cutoff"] = args.cutoff
    results = {
        "report": report.to_json(),
        "closed_form_v": ((1.0 + lam2) / (1.0 - lam2)) ** 2,
    }
    return inputs, results, {"state": dim}


def _run_bell(args) -> tuple[dict, dict, dict]:
    from .operators import spin_ops
    from .states import bell
    from .witnesses import multipartite, ramanujan_witness, uffink

    state = bell(args.parties)
    s_x, s_y, _, _ = spin_ops()
    inputs: dict[str, Any] = {"parties": args.parties, "condition": args.condition}
    if args.condition == "variance":
        report = multipartite([s_x] * args.parties, [s_y] * args.parties, state)
    elif args.condition == "ramanujan":
        inputs["n"] = args.n
        report = ramanujan_witness(s_x, s_y, s_x, s_y, state, args.n)
    else:
        report = uffink(s_x, s_y, s_x, s_y, state)
    return inputs, {"report": report.to_json()}, {}


def _run_schmidt(args) -> tuple[dict, dict, dict]:
    from .witnesses import schmidt_optimal_witness

    *_, report = schmidt_optimal_witness(args.alpha, args.beta)
    inputs = {"alpha": [args.alpha.real, args.alpha.imag],
              "beta": [args.beta.real, args.beta.imag]}
    return inputs, {"report": report.to_json()}, {}


def _run_identity(args) -> tuple[dict, dict, dict]:
    from .polyid import verify

    inputs: dict[str, Any] = {"name": args.name}
    if args.n is not None:
        inputs["n"] = args.n
    return inputs, {"valid": verify(args.name, args.n)}, {}


def _run_eval(args) -> tuple[dict, dict, dict]:
    from .polyid import equal, expand, parse

    lhs = expand(parse(args.expr_lhs))
    rhs = expand(parse(args.expr_rhs))
    inputs = {"expr_lhs": args.expr_lhs, "expr_rhs": args.expr_rhs}
    return inputs, {"equal": equal(lhs, rhs)}, {}


_SPIN_NAMES = ("sx", "sy", "sz")
_BUILTIN_NAMES = _SPIN_NAMES + ("x", "p", "blockx", "blocky")


def _builtin_operator(name: Any, dim: int) -> ComplexMatrix:
    from .operators import block_spin, quadratures, spin_ops

    if not isinstance(name, str):
        raise ValueError(f"operator names must be strings, got {name!r}")
    if name in _SPIN_NAMES:
        if dim != 2:
            raise ValueError(f"operator {name!r} needs a two-level factor, "
                             f"got dimension {dim}")
        s_x, s_y, s_z, _ = spin_ops()
        return {"sx": s_x, "sy": s_y, "sz": s_z}[name]
    if name in ("x", "p"):
        quad = quadratures(dim)
        return quad.x if name == "x" else quad.p
    if name in ("blockx", "blocky"):
        return block_spin(dim)[0 if name == "blockx" else 1]
    raise ValueError(f"unknown builtin operator {name!r}; "
                     f"expected one of {', '.join(_BUILTIN_NAMES)}")


def _witness_from_opspec(condition: str, ops: Any, state: QuantumState):
    from .states import _as_int
    from .witnesses import (four_variance, multipartite, ramanujan_witness, uffink,
                            variance_product, variance_sum)

    if not isinstance(ops, Mapping):
        raise ValueError("operator spec must be a JSON object")
    if condition == "multipartite":
        allowed = {"A", "Aprime"}
    elif condition == "ramanujan":
        allowed = {"A", "Aprime", "B", "Bprime", "n"}
    else:
        allowed = {"A", "Aprime", "B", "Bprime"}
    unknown = set(ops) - allowed
    if unknown:
        raise ValueError(f"operator spec has unknown fields {sorted(unknown)}")
    missing = sorted((allowed - {"n"}) - set(ops))
    if missing:
        raise ValueError(f"operator spec is missing fields {missing}")

    if condition == "multipartite":
        names, primed = ops["A"], ops["Aprime"]
        if not isinstance(names, list) or not isinstance(primed, list):
            raise ValueError("multipartite operator spec needs lists under "
                             "'A' and 'Aprime'")
        if len(names) != len(state.dims) or len(primed) != len(state.dims):
            raise ValueError(f"need one operator name per factor "
                             f"({len(state.dims)} factors)")
        As = [_builtin_operator(nm, d) for nm, d in zip(names, state.dims)]
        Aps = [_builtin_operator(nm, d) for nm, d in zip(primed, state.dims)]
        return multipartite(As, Aps, state)

    if len(state.dims) != 2:
        raise ValueError(f"condition {condition!r} is bipartite; "
                         f"state has {len(state.dims)} factors")
    dim_a, dim_b = state.dims
    A = _builtin_operator(ops["A"], dim_a)
    Ap = _builtin_operator(ops["Aprime"], dim_a)
    B = _builtin_operator(ops["B"], dim_b)
    Bp = _builtin_operator(ops["Bprime"], dim_b)
    if condition == "ramanujan":
        return ramanujan_witness(A, Ap, B, Bp, state, _as_int(ops.get("n", 2), "n"))
    dispatch = {"variance_product": variance_product,
                "variance_sum": variance_sum,
                "uffink": uffink,
                "four_variance": four_variance}
    return dispatch[condition](A, Ap, B, Bp, state)


def _run_witness(args) -> tuple[dict, dict, dict]:
    from .states import StateSpec

    with open(args.state, encoding="utf-8") as handle:
        spec = StateSpec.from_json(json.load(handle))
    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    state = spec.build()
    report = _witness_from_opspec(args.condition, ops, state)
    inputs = {"state": spec.to_json(), "ops": ops, "condition": args.condition}
    cutoff = spec.resolved_cutoff()
    cutoffs = {} if cutoff is None else {"state": cutoff}
    return inputs, {"report": report.to_json()}, cutoffs


_HANDLERS = {
    "cmatrix": _run_cmatrix,
    "psi2": _run_psi2,
    "mixture": _run_mixture,
    "squeezed": _run_squeezed,
    "bell": _run_bell,
    "schmidt": _run_schmidt,
    "identity": _run_identity,
    "eval": _run_eval,
    "witness": _run_witness,
}


def _round_floats(obj: Any) -> Any:
    """Round every float to 12 significant digits (bools and ints untouched)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Mapping):
        return {key: _round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(value) for value in obj]
    return obj


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.command == "bell" and args.condition in ("ramanujan", "uffink")
                and args.parties != 2):
            parser.error(f"--condition {args.condition} requires --parties 2")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        inputs, results, cutoffs = _HANDLERS[args.command](args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "meta": {
            "version": __version__,
            "tolerances": DEFAULT.as_dict(),
            "cutoffs": cutoffs,
        },
    }
    try:
        print(json.dumps(_round_floats(document), indent=2), flush=True)
    except BrokenPipeError:  # the reader left early: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
