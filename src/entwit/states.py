"""State-family constructors and their JSON spec.

Families
--------
fock_pair       c_n amplitudes on the paired even levels |2n, 2n>
psi2            two-coefficient special case c0|00> + c1|22>, c1 fixed by c0
vacuum_mixture  p * fock_pair projector + (1-p) * |00><00|
squeezed        two-mode squeezed vacuum, amplitudes ~ lambda^n on |n, n>
bell            n-party GHZ-type state (|0...0> + |1...1>)/sqrt(2)
schmidt         two-qubit alpha|00> + beta|11>
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .config import DEFAULT
from .hilbert import QuantumState, _refuse_oversize, mix

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
    """
    if num_coeffs < 1:
        raise ValueError("need at least one coefficient")
    return 2 * (num_coeffs - 1) + 4


def squeezed_cutoff(lam: float) -> int:
    """Smallest even cutoff D >= 2 with lambda^(2D) below the tail-mass budget.

    D is estimated as log(tail) / (2 log|lambda|), then moved in steps of 2
    against the exact condition, so the result is that of stepping D = 2,
    4, ... until the condition holds, in O(1) time even for |lambda| near 1.
    """
    r = abs(lam)
    if r >= 1.0:
        raise ValueError(f"squeezing parameter must satisfy |lambda| < 1, got {lam}")
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
    coeffs = np.asarray(c, dtype=float).reshape(-1)
    if coeffs.size < 1:
        raise ValueError("need at least one coefficient")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    norm = float(np.linalg.norm(coeffs))
    if abs(norm - 1.0) > DEFAULT.state_norm:
        raise ValueError(f"coefficient norm is {norm!r}, not 1 within {DEFAULT.state_norm}")
    N = coeffs.size - 1
    D = pair_cutoff(coeffs.size) if cutoff is None else int(cutoff)
    if 2 * N + 1 > D:
        raise ValueError(f"cutoff {D} too small for top level {2 * N} (need D >= {2 * N + 1})")
    _refuse_oversize(16 * D * D, f"a pure state at cutoff {D}")
    amps = np.zeros(D * D, dtype=np.complex128)
    for n, cn in enumerate(coeffs):
        amps[(2 * n) * D + 2 * n] = cn
    return QuantumState.pure(amps, (D, D))


def vacuum_mixture(p: float, c: Sequence[float], cutoff: int | None = None) -> QuantumState:
    """Mixture p * |psi><psi| + (1 - p) * |00><00| of a paired state with vacuum."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {p}")
    psi = fock_pair_superposition(c, cutoff)
    D = psi.dims[0]
    vac = np.zeros(D * D, dtype=np.complex128)
    vac[0] = 1.0
    vacuum = QuantumState.pure(vac, (D, D))
    return mix([psi, vacuum], [p, 1.0 - p])


def squeezed_vacuum(lam: float, cutoff: int | None = None) -> QuantumState:
    """Two-mode squeezed vacuum, truncated and renormalized to unit norm.

    When ``cutoff`` is omitted it is chosen by :func:`squeezed_cutoff`, which
    keeps the discarded tail mass below 1e-12 (so the renormalization factor
    differs from sqrt(1 - lambda^2) by less than 1e-12).
    """
    lam = float(lam)
    if abs(lam) >= 1.0:
        raise ValueError(f"squeezing parameter must satisfy |lambda| < 1, got {lam}")
    D = squeezed_cutoff(lam) if cutoff is None else int(cutoff)
    if D < 1:
        raise ValueError(f"cutoff must be positive, got {D}")
    _refuse_oversize(16 * D * D, f"a pure state at cutoff {D}")
    diag = lam ** np.arange(D, dtype=float)
    diag = diag / np.linalg.norm(diag)
    amps = np.zeros(D * D, dtype=np.complex128)
    amps[np.arange(D) * D + np.arange(D)] = diag
    return QuantumState.pure(amps, (D, D))


def bell(n: int) -> QuantumState:
    """n-party state (|0...0> + |1...1>)/sqrt(2) on dims [2]*n."""
    n = _as_int(n, "parties")
    if n < 2:
        raise ValueError(f"bell needs at least 2 parties, got {n}")
    _refuse_oversize(16 * 2**n, f"a {n}-party pure state")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return QuantumState.pure(amps, (2,) * n)


def schmidt_pair(alpha: complex, beta: complex) -> QuantumState:
    """Two-qubit pure state alpha|00> + beta|11> (computational-basis Schmidt form)."""
    alpha = complex(alpha)
    beta = complex(beta)
    norm2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm2 - 1.0) > DEFAULT.state_norm:
        raise ValueError(f"|alpha|^2 + |beta|^2 is {norm2!r}, not 1 within {DEFAULT.state_norm}")
    return QuantumState.pure([alpha, 0.0, 0.0, beta], (2, 2))


_FAMILIES = ("fock_pair", "psi2", "vacuum_mixture", "squeezed", "bell", "schmidt")


def _as_int(value: Any, name: str) -> int:
    """``value`` as an int.  Only Python and numpy integers pass; a bool, a
    float or a string is rejected, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def _as_complex(value: Any, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ValueError(f"parameter {name!r} must be a real number or a [re, im] pair")


def _require_params(params: Mapping[str, Any], family: str, required: set[str]) -> None:
    missing = required - set(params)
    extra = set(params) - required
    if missing:
        raise ValueError(f"family {family!r} is missing parameters {sorted(missing)}")
    if extra:
        raise ValueError(f"family {family!r} does not take parameters {sorted(extra)}")


@dataclass(frozen=True)
class StateSpec:
    """Declarative state description with the canonical JSON encoding
    ``{"family": ..., "params": {...}, "cutoff": D}``."""

    family: str
    params: Mapping[str, Any] = field(default_factory=dict)
    cutoff: int | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown state family {self.family!r}; "
                             f"expected one of {', '.join(_FAMILIES)}")
        object.__setattr__(self, "params", dict(self.params))
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", _as_int(self.cutoff, "cutoff"))

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

    def resolved_cutoff(self) -> int | None:
        """The Fock cutoff this spec will actually use (None for spin families)."""
        p = self.params
        if self.family in ("fock_pair", "vacuum_mixture"):
            return self.cutoff if self.cutoff is not None else pair_cutoff(len(p["c"]))
        if self.family == "psi2":
            return self.cutoff if self.cutoff is not None else pair_cutoff(2)
        if self.family == "squeezed":
            return self.cutoff if self.cutoff is not None else squeezed_cutoff(float(p["lambda"]))
        return None


def _psi2_coeffs(c0: float) -> list[float]:
    c0 = float(c0)
    if not 0.0 <= c0 <= 1.0:
        raise ValueError(f"psi2 coefficient c0 must lie in [0, 1], got {c0}")
    return [c0, math.sqrt(max(0.0, 1.0 - c0 * c0))]


def build_state(spec: StateSpec) -> QuantumState:
    """Construct the QuantumState described by ``spec``."""
    family, p = spec.family, spec.params
    if family == "fock_pair":
        _require_params(p, family, {"c"})
        return fock_pair_superposition(p["c"], spec.resolved_cutoff())
    if family == "psi2":
        _require_params(p, family, {"c0"})
        return fock_pair_superposition(_psi2_coeffs(p["c0"]), spec.resolved_cutoff())
    if family == "vacuum_mixture":
        _require_params(p, family, {"p", "c"})
        return vacuum_mixture(p["p"], p["c"], spec.resolved_cutoff())
    if family == "squeezed":
        _require_params(p, family, {"lambda"})
        return squeezed_vacuum(float(p["lambda"]), spec.resolved_cutoff())
    if family == "bell":
        _require_params(p, family, {"parties"})
        return bell(p["parties"])
    if family == "schmidt":
        _require_params(p, family, {"alpha", "beta"})
        return schmidt_pair(_as_complex(p["alpha"], "alpha"), _as_complex(p["beta"], "beta"))
    raise ValueError(f"unknown state family {family!r}")  # unreachable
