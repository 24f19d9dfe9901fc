"""Command-line front end.

Every subcommand prints a single JSON document to stdout:

    {"command": ..., "inputs": ..., "results": ..., "meta": ...}

with ``meta`` holding the package version, the active tolerance table and
any Fock cutoffs that were resolved.  Diagnostics go to stderr.  Exit codes:
0 success, 1 computation/validation error, 2 usage error.  Floats are
rounded to 12 significant digits so identical invocations produce
byte-identical documents.  The document is streamed: it is rounded and
written piece by piece, with the bytes ``json.dumps(..., indent=2)`` would
give, so a long scan is never held as one string.

:func:`main`, the one exit path of the ``entwit`` script, ``python -m
entwit`` and ``python -m entwit.cli``, calls :func:`gc.freeze` after
:func:`run` has returned, so the full collections of the interpreter's
shutdown skip the tens of thousands of objects that numpy and entwit made
at import (5-9 ms a collection).  Shutdown is otherwise the usual one:
``atexit`` handlers run and the streams are flushed.  :func:`run` never
freezes, so in-process callers keep a collecting heap.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from . import __version__
from .config import _IDENTITY_ROWS, DEFAULT, _as_unit

if TYPE_CHECKING:
    from .hilbert import ComplexMatrix, QuantumState
    from .states import StateSpec

__all__ = ["run", "main"]


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


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
    p.add_argument("--n", type=int, choices=(2, 4),
                   help="power for the ramanujan condition (default 2)")

    p = sub.add_parser(
        "schmidt",
        help="optimally tuned variance-product witness for alpha|00> + beta|11>")
    p.add_argument("--alpha", type=_complex_pair, required=True, metavar="RE,IM")
    p.add_argument("--beta", type=_complex_pair, required=True, metavar="RE,IM")

    p = sub.add_parser("identity", help="verify a built-in polynomial identity")
    p.add_argument("--name", required=True, choices=tuple(_IDENTITY_ROWS),
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
    p.add_argument("--condition", required=True, choices=tuple(_CONDITIONS))
    return parser


def _run_cmatrix(args) -> tuple[dict, dict, dict]:
    from .optimize import _c_entries, _eigenpair, vmax_from_lambda

    diag, off = _c_entries(args.n)
    _as_unit(args.p, "p", "mixing weight")  # a bad --p is refused before the solve
    lam, vec = _eigenpair(diag, off, args.tol)
    results = {
        "lambda_min": lam,
        "eigenvector_head": vec[:8].tolist(),
        "vmax": vmax_from_lambda(lam, args.p),
    }
    return {"n": args.n, "p": args.p, "tol": args.tol}, results, {}


def _run_psi2(args) -> tuple[dict, dict, dict]:
    from .optimize import _scan, _scan_json

    return {"scan": args.scan}, {"scan": _scan_json(*_scan(args.scan))}, {}


def _evaluate_spec(spec: StateSpec, condition: str, ops: Any) -> tuple[dict, dict]:
    """``{"report": ...}`` for ``condition`` on the state of ``spec``, and the
    resolved cutoffs: a Fock state's cutoff is the side of each mode."""
    from .states import _SPIN_FAMILIES

    state = spec.build()
    cutoffs = {} if spec.family in _SPIN_FAMILIES else {"state": state.dims[0]}
    return {"report": _evaluate(condition, ops, state).to_json()}, cutoffs


def _run_mixture(args) -> tuple[dict, dict, dict]:
    from .optimize import quadratic_form
    from .states import StateSpec

    spec = StateSpec("vacuum_mixture", {"p": args.p, "c": args.coeffs}, args.cutoff)
    results, cutoffs = _evaluate_spec(spec, "variance_product",
                                      {"A": "x", "Aprime": "p", "B": "p", "Bprime": "x"})
    inputs: dict[str, Any] = {"p": args.p, "coeffs": list(args.coeffs)}
    if args.cutoff is not None:
        inputs["cutoff"] = args.cutoff
    results["closed_form_lhs"] = 0.25 + args.p * quadratic_form(args.coeffs)
    return inputs, results, cutoffs


def _run_squeezed(args) -> tuple[dict, dict, dict]:
    from .states import StateSpec

    spec = StateSpec("squeezed", {"lambda": args.lam}, args.cutoff)
    results, cutoffs = _evaluate_spec(spec, "variance_product", {
        "A": "blockx", "Aprime": "blocky", "B": "blockx", "Bprime": "blocky"})
    inputs: dict[str, Any] = {"lambda": args.lam}
    if args.cutoff is not None:
        inputs["cutoff"] = args.cutoff
    lam2 = args.lam * args.lam
    results["closed_form_v"] = ((1.0 + lam2) / (1.0 - lam2)) ** 2
    return inputs, results, cutoffs


def _run_bell(args) -> tuple[dict, dict, dict]:
    from .states import StateSpec

    inputs: dict[str, Any] = {"parties": args.parties, "condition": args.condition}
    condition, ops = args.condition, {"A": "sx", "Aprime": "sy", "B": "sx", "Bprime": "sy"}
    if condition == "variance":
        condition = "multipartite"
        ops = {"A": ["sx"] * args.parties, "Aprime": ["sy"] * args.parties}
    elif condition == "ramanujan":
        inputs["n"] = ops["n"] = 2 if args.n is None else args.n
    return inputs, *_evaluate_spec(StateSpec("bell", {"parties": args.parties}), condition, ops)


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


# The builtin operators, in the groups that one call builds together.
_GROUPS = (("sx", "sy", "sz"), ("x", "p"), ("blockx", "blocky"))
_BUILTIN_NAMES = sum(_GROUPS, ())

# Each `witness --condition`, in the order of its choices, with the fields of
# its operator spec ("n" optional); each evaluates through `witnesses.<name>`,
# ramanujan through `ramanujan_witness(..., n)`.
_QUADRUPLE = ("A", "Aprime", "B", "Bprime")
_CONDITIONS = {"variance_product": _QUADRUPLE, "variance_sum": _QUADRUPLE,
               "multipartite": _QUADRUPLE[:2], "ramanujan": (*_QUADRUPLE, "n"),
               "uffink": _QUADRUPLE, "four_variance": _QUADRUPLE}


def _builtin_operators(requests: list[tuple[Any, int]]) -> list[ComplexMatrix]:
    """The builtin operator for each ``(name, factor dimension)``, checked in
    order.  A group is built once per dimension and keeps only its requested
    members, so equal requests share one object and the block ``Z`` is freed."""
    from .operators import block_spin, quadratures, spin_ops

    wanted = {(name, dim) for name, dim in requests if isinstance(name, str)}
    built: dict[tuple[tuple[str, ...], int], dict[str, ComplexMatrix]] = {}
    out = []
    for name, dim in requests:
        if not isinstance(name, str):
            raise ValueError(f"operator names must be strings, got {name!r}")
        if name not in _BUILTIN_NAMES:
            raise ValueError(f"unknown builtin operator {name!r}; "
                             f"expected one of {', '.join(_BUILTIN_NAMES)}")
        if name in _GROUPS[0] and dim != 2:
            raise ValueError(f"operator {name!r} needs a two-level factor, "
                             f"got dimension {dim}")
        group = next(g for g in _GROUPS if name in g)
        if (group, dim) not in built:
            if group is _GROUPS[0]:
                members = spin_ops()
            elif group is _GROUPS[1]:
                members = attrgetter("x", "p")(quadratures(dim))
            else:
                members = block_spin(dim)
            built[group, dim] = {m: op for m, op in zip(group, members) if (m, dim) in wanted}
            del members
        out.append(built[group, dim][name])
    return out


def _evaluate(condition: str, ops: Any, state: QuantumState):
    """``condition`` on ``state`` with the builtin operators the op spec names."""
    from . import witnesses

    if not isinstance(ops, Mapping):
        raise ValueError("operator spec must be a JSON object")
    allowed = set(_CONDITIONS[condition])
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
        built = _builtin_operators([*zip(names, state.dims), *zip(primed, state.dims)])
        return witnesses.multipartite(built[:len(names)], built[len(names):], state)

    if len(state.dims) != 2:
        raise ValueError(f"condition {condition!r} is bipartite; "
                         f"state has {len(state.dims)} factors")
    dim_a, dim_b = state.dims
    quadruple = _builtin_operators([(ops["A"], dim_a), (ops["Aprime"], dim_a),
                                    (ops["B"], dim_b), (ops["Bprime"], dim_b)])
    if condition == "ramanujan":
        return witnesses.ramanujan_witness(*quadruple, state, ops.get("n", 2))
    return getattr(witnesses, condition)(*quadruple, state)


def _run_witness(args) -> tuple[dict, dict, dict]:
    from .states import StateSpec

    with open(args.state, encoding="utf-8") as handle:
        spec = StateSpec.from_json(json.load(handle))
    with open(args.ops, encoding="utf-8") as handle:
        ops = json.load(handle)
    inputs = {"state": spec.to_json(), "ops": ops, "condition": args.condition}
    return inputs, *_evaluate_spec(spec, args.condition, ops)


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


# Floats of a flat list encoded per write.  A rounded float and its
# separator take under 32 bytes at the depths the documents reach, so one
# write stays under 128 KB.
_SLICE = 4096


def _write_json(obj: Any, write: Callable[[str], object], indent: str = "") -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2)`` encodes it, with every
    float rounded to 12 significant digits, in pieces passed to ``write``.

    Mappings (with string keys), lists and tuples are laid out here, and
    scalars go through ``json.dumps``.  A list of floats is written a slice
    at a time, its item separator carrying the indentation.  A slice is
    formatted by one ``%`` over a template of ``%.12g`` fields joined by the
    separator.  With at most 12 significant digits, ``repr`` of the rounded
    float has the digits ``%g`` wrote, so that text is what ``json.dumps``
    writes when every float shows a ``.`` and the text holds no ``e+1``
    (``%g`` writes e+12 to e+15 where ``repr`` spells the digits out) and no
    ``e-3`` (subnormals, whose ``repr`` is shorter).  Any other slice, with
    integral values, -0, nan or inf among them, goes through the C encoder.
    """
    if isinstance(obj, Mapping):
        inner = indent + "  "
        lead = "{\n" + inner
        for key, value in obj.items():
            write(lead + json.dumps(key) + ": ")
            _write_json(value, write, inner)
            lead = ",\n" + inner
        write("\n" + indent + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = indent + "  "
        lead, sep = "[\n" + inner, ",\n" + inner
        if all(type(value) is float for value in obj):
            for start in range(0, len(obj), _SLICE):
                chunk = obj[start:start + _SLICE]
                text = sep.join(["%.12g"] * len(chunk)) % tuple(chunk)
                if text.count(".") != len(chunk) or "e+1" in text or "e-3" in text:
                    text = json.dumps([float(f"{value:.12g}") for value in chunk],
                                      separators=(sep, ": "))[1:-1]
                write(lead + text)
                lead = sep
        else:
            for value in obj:
                write(lead)
                _write_json(value, write, inner)
                lead = sep
        write("\n" + indent + "]" if obj else "[]")
    elif isinstance(obj, float):
        write(json.dumps(float(f"{obj:.12g}")))
    else:
        write(json.dumps(obj))


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bell":
            if args.condition in ("ramanujan", "uffink") and args.parties != 2:
                parser.error(f"--condition {args.condition} requires --parties 2")
            if args.condition != "ramanujan" and args.n is not None:
                parser.error("--n applies to --condition ramanujan only")
        if args.command == "identity" and args.name != "ramanujan" and args.n is not None:
            parser.error("--n applies to --name ramanujan only")
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
        _write_json(document, sys.stdout.write)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early: keep the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main() -> None:
    code = run()
    # the document is written: exit without the shutdown collections
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
