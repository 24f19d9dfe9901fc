"""Variance-based entanglement conditions on finite-dimensional and
truncated bosonic Hilbert spaces, plus exact polynomial identity checking.

The package splits into small layers:

- :mod:`entwit.hilbert` — matrices, states, moments and variances;
- :mod:`entwit.operators` — ladder/quadrature, spin and paired-level spin
  operators;
- :mod:`entwit.states` — the state families under study and a declarative
  :class:`~entwit.states.StateSpec`;
- :mod:`entwit.witnesses` — the entanglement conditions themselves, each
  returning a :class:`~entwit.witnesses.WitnessReport`;
- :mod:`entwit.optimize` — the truncated quadratic-form matrix, its minimal
  eigenvalue by Sturm bisection, and scans over the small families;
- :mod:`entwit.polyid` — exact rational polynomial algebra behind the
  power-sum identities;
- :mod:`entwit.cli` — the ``entwit`` command.

The public names below are re-exported here but loaded on first use
(PEP 562): ``import entwit`` imports no submodule and no numpy, and
``entwit.kron`` or ``from entwit import kron`` imports only
:mod:`entwit.hilbert`.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "config": "DEFAULT Tolerances",
        "hilbert": "ComplexMatrix QuantumState commutator expectation kron mix variance",
        "operators": "QuadraturePair annihilation block_spin quadratures spin_ops",
        "optimize": "ScanResult TridiagonalMatrix c_matrix min_eigenvalue psi2_scan "
                    "quadratic_form vmax_from_lambda",
        "polyid": "ParseError Polynomial builtin_identity equal eval_expr expand parse "
                  "pretty verify",
        "states": "StateSpec bell build_state fock_pair_superposition pair_cutoff "
                  "schmidt_pair squeezed_cutoff squeezed_vacuum vacuum_mixture",
        "witnesses": "WitnessReport four_variance heisenberg_floor multipartite "
                     "ramanujan_witness schmidt_optimal_witness uffink variance_product "
                     "variance_sum",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(_EXPORTS.values())

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
