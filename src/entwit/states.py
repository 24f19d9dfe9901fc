"""State-family constructors and their JSON spec.

Families
--------
fock_pair       c_n amplitudes on the paired even levels |2n, 2n>
psi2            two-coefficient special case c0|00> + c1|22>, c1 fixed by c0
vacuum_mixture  p * fock_pair projector + (1-p) * |00><00|
squeezed        two-mode squeezed vacuum, amplitudes ~ lambda^n on |n, n>
bell            n-party GHZ-type state (|0...0> + |1...1>)/sqrt(2)
schmidt         two-qubit alpha|00> + beta|11>

Each constructor checks every parameter it takes, ``cutoff`` and ``alpha``/
``beta`` included (a wrong type is refused with a ValueError naming it, not
cast), then builds its state once, with the bare ``QuantumState`` constructor.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .config import (DEFAULT, _Record, _as_int, _as_real, _as_squeezing, _as_unit,
                     _refuse_oversize)
from .hilbert import QuantumState, _as_reals, mix

__all__ = [
    "StateSpec",
    "build_state",
    "fock_pair_superposition",
    "vacuum_mixture",
    "squeezed_vacuum",
    "bell",
    "schmidt_pair",
    "pair_cutoff",
    "squeezed_cutoff",
]


def pair_cutoff(num_coeffs: int) -> int:
    """Default Fock cutoff 2N + 4 for a paired state with N = num_coeffs - 1.

    The top populated level is 2N; two spare levels above it make every
    quadrature second moment on the family exact despite truncation.
    :func:`fock_pair_superposition` refuses a cutoff below 2N + 3, the
    bound at which those two spare levels are there.
    """
    num_coeffs = _as_int(num_coeffs, "num_coeffs")
    if num_coeffs < 1:
        raise ValueError("need at least one coefficient")
    return 2 * (num_coeffs - 1) + 4


def squeezed_cutoff(lam: float) -> int:
    """Smallest even cutoff D >= 2 with lambda^(2D) below the tail-mass budget.

    D is estimated as log(tail) / (2 log|lambda|), then moved in steps of 2
    against the exact condition, so the result is that of stepping D = 2,
    4, ... until the condition holds, in O(1) time even for |lambda| near 1.
    """
    r = abs(_as_squeezing(lam))
    tail = DEFAULT.tail_mass
    D = 2
    if r > 0.0:
        D = max(2, 2 * math.ceil(math.log(tail) / (4.0 * math.log(r))))
    while D > 2 and r ** (2 * (D - 2)) < tail:
        D -= 2
    while r ** (2 * D) >= tail:
        D += 2
    return D


def fock_pair_superposition(c: Sequence[float], cutoff: int | None = None) -> QuantumState:
    """Two-mode pure state with real amplitude c_n at the level pair (2n, 2n)."""
    coeffs = _as_reals(c, "c")
    if coeffs.size < 1:
        raise ValueError("need at least one coefficient")
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > DEFAULT.state_norm:
        raise ValueError(f"coefficient norm is {norm!r}, not 1 within {DEFAULT.state_norm}")
    N = coeffs.size - 1
    D = pair_cutoff(coeffs.size) if cutoff is None else _as_int(cutoff, "cutoff")
    if 2 * N + 3 > D:
        raise ValueError(f"cutoff {D} too small for top level {2 * N} (need D >= {2 * N + 3})")
    _refuse_oversize(16 * D * D, f"a pure state at cutoff {D}")
    return _paired(D, coeffs, 2)


def vacuum_mixture(p: float, c: Sequence[float], cutoff: int | None = None) -> QuantumState:
    """Mixture p * |psi><psi| + (1 - p) * |00><00| of a paired state with vacuum."""
    p = _as_unit(p, "p", "mixture weight")
    psi = fock_pair_superposition(c, cutoff)
    return mix([psi, _paired(psi.dims[0], [1.0], 1)], [p, 1.0 - p])


def squeezed_vacuum(lam: float, cutoff: int | None = None) -> QuantumState:
    """Two-mode squeezed vacuum, truncated and renormalized to unit norm.

    When ``cutoff`` is omitted it is chosen by :func:`squeezed_cutoff`, which
    keeps the discarded tail mass below 1e-12 (so the renormalization factor
    differs from sqrt(1 - lambda^2) by less than 1e-12).
    """
    lam = _as_squeezing(lam)
    D = squeezed_cutoff(lam) if cutoff is None else _as_int(cutoff, "cutoff")
    if D < 1:
        raise ValueError(f"cutoff must be positive, got {D}")
    _refuse_oversize(16 * D * D, f"a pure state at cutoff {D}")
    diag = lam ** np.arange(D, dtype=float)
    return _paired(D, diag / np.linalg.norm(diag), 1)


def bell(n: int) -> QuantumState:
    """n-party state (|0...0> + |1...1>)/sqrt(2) on dims [2]*n."""
    n = _as_int(n, "parties")
    if n < 2:
        raise ValueError(f"bell needs at least 2 parties, got {n}")
    _refuse_oversize(16 * 2**n, f"a {n}-party pure state")
    amps = np.zeros((1, 2**n), dtype=np.complex128)
    amps[0, 0] = amps[0, -1] = 1.0 / math.sqrt(2.0)
    return QuantumState("pure", (2,) * n, np.ones(1), amps)


def schmidt_pair(alpha: complex, beta: complex) -> QuantumState:
    """Two-qubit pure state alpha|00> + beta|11> (computational-basis Schmidt form)."""
    alpha = _as_complex(alpha, "alpha")
    beta = _as_complex(beta, "beta")
    norm2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm2 - 1.0) > DEFAULT.state_norm:
        raise ValueError(f"|alpha|^2 + |beta|^2 is {norm2!r}, not 1 within {DEFAULT.state_norm}")
    return _paired(2, [alpha, beta], 1)


def _paired(D: int, values: Sequence[complex], step: int) -> QuantumState:
    """``sum_n values[n] |step*n, step*n>`` at cutoff ``D``, from checked values."""
    amps = np.zeros((1, D * D), dtype=np.complex128)
    amps[0, step * (D + 1) * np.arange(len(values))] = values
    return QuantumState("pure", (D, D), np.ones(1), amps)


def _as_complex(value: Any, name: str) -> complex:
    """``value`` as a finite complex: a real checked by :func:`_as_real`, a
    Python or numpy complex, or a [re, im] pair of reals."""
    if isinstance(value, numbers.Real):
        return complex(_as_real(value, name))
    if isinstance(value, numbers.Complex):
        value = (value.real, value.imag)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_real(value[0], name), _as_real(value[1], name))
    raise ValueError(f"parameter {name!r} must be a real number or a [re, im] pair")


class StateSpec(_Record):
    """Declarative state description with the canonical JSON encoding
    ``{"family": ..., "params": {...}, "cutoff": D}``."""

    __slots__ = __match_args__ = ("family", "params", "cutoff")

    def __init__(self, family: str, params: Mapping[str, Any] | None = None,
                 cutoff: int | None = None):
        if not isinstance(family, str) or family not in _FAMILIES:
            raise ValueError(f"unknown state family {family!r}; "
                             f"expected one of {', '.join(_FAMILIES)}")
        if params is not None and not isinstance(params, Mapping):
            raise ValueError(f"state params must be a mapping, got {params!r}")
        self._init(family, {} if params is None else dict(params),
                   None if cutoff is None else _as_int(cutoff, "cutoff"))

    @classmethod
    def from_json(cls, obj: Mapping[str, Any]) -> "StateSpec":
        if not isinstance(obj, Mapping):
            raise ValueError("state spec must be a JSON object")
        unknown = set(obj) - {"family", "params", "cutoff"}
        if unknown:
            raise ValueError(f"state spec has unknown fields {sorted(unknown)}")
        if "family" not in obj:
            raise ValueError("state spec requires a 'family' field")
        return cls(obj["family"], obj.get("params", {}), obj.get("cutoff"))

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"family": self.family, "params": dict(self.params)}
        if self.cutoff is not None:
            out["cutoff"] = self.cutoff
        return out

    def build(self) -> QuantumState:
        return build_state(self)


# The families without a Fock cutoff.
_SPIN_FAMILIES = frozenset({"bell", "schmidt"})


def _psi2_coeffs(c0: float) -> list[float]:
    c0 = _as_unit(c0, "c0", "psi2 coefficient c0")
    return [c0, math.sqrt(max(0.0, 1.0 - c0 * c0))]


# family -> (parameter names, constructor of (params, cutoff)); the spin
# families take no cutoff (build_state refuses one).  Each lambda looks its
# constructor up when called, so a wrapped or patched module function is
# the one that runs.
_FAMILIES: dict[str, tuple[set[str], Callable[..., QuantumState]]] = {
    "fock_pair": ({"c"}, lambda p, D: fock_pair_superposition(p["c"], D)),
    "psi2": ({"c0"}, lambda p, D: fock_pair_superposition(_psi2_coeffs(p["c0"]), D)),
    "vacuum_mixture": ({"p", "c"}, lambda p, D: vacuum_mixture(p["p"], p["c"], D)),
    "squeezed": ({"lambda"}, lambda p, D: squeezed_vacuum(p["lambda"], D)),
    "bell": ({"parties"}, lambda p, D: bell(p["parties"])),
    "schmidt": ({"alpha", "beta"}, lambda p, D: schmidt_pair(p["alpha"], p["beta"])),
}


def build_state(spec: StateSpec) -> QuantumState:
    """Construct the QuantumState described by ``spec``."""
    required, construct = _FAMILIES[spec.family]
    missing = required - set(spec.params)
    extra = set(spec.params) - required
    if missing:
        raise ValueError(f"family {spec.family!r} is missing parameters {sorted(missing)}")
    if extra:
        raise ValueError(f"family {spec.family!r} does not take parameters {sorted(extra)}")
    if spec.family in _SPIN_FAMILIES and spec.cutoff is not None:
        raise ValueError(f"family {spec.family!r} has no Fock cutoff, got {spec.cutoff}")
    return construct(spec.params, spec.cutoff)
