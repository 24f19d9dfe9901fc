"""The state families' parameters, with no numpy.

:class:`StateSpec` is the declarative description of a state that the
command line reads, and :func:`_check_spec` refuses a spec whose parameter
names do not fit its family.  :func:`_as_parties` and :func:`_as_schmidt`
check the values of the two spin families' parameters, and
:func:`_schmidt_angles` gives the angles of the witness tuned to a Schmidt
pair.  The dense states (``states``, ``witnesses``) and the sparse spin
families (``pauli``) read each of these rules from here, so each is stated
once; the command line imports this module only when a subcommand builds a
state.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Mapping

from .config import DEFAULT, _Record, _as_int, _as_real

__all__ = ["StateSpec"]


def _as_parties(value: Any) -> int:
    """``value`` as the party count of a Bell state: an integer of at least 2."""
    n = _as_int(value, "parties")
    if n < 2:
        raise ValueError(f"bell needs at least 2 parties, got {n}")
    return n


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


def _as_schmidt(alpha: Any, beta: Any) -> tuple[complex, complex]:
    """The amplitudes of ``alpha|00> + beta|11>``: two finite complex numbers
    with ``|alpha|^2 + |beta|^2 = 1`` within the state-norm tolerance."""
    alpha = _as_complex(alpha, "alpha")
    beta = _as_complex(beta, "beta")
    norm2 = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm2 - 1.0) > DEFAULT.state_norm:
        raise ValueError(f"|alpha|^2 + |beta|^2 is {norm2!r}, not 1 within {DEFAULT.state_norm}")
    return alpha, beta


def _schmidt_angles(alpha: complex, beta: complex) -> tuple[float, float, float, float]:
    """The angles of ``A, A', B, B'``, each ``s_x cos(angle) + s_y sin(angle)``,
    of the witness tuned to ``alpha|00> + beta|11>``: theta = -arg(alpha) and
    eta = arg(beta), each primed partner a quarter turn ahead."""
    theta, eta = -math.atan2(alpha.imag, alpha.real), math.atan2(beta.imag, beta.real)
    return theta, theta + math.pi / 2.0, eta, eta + math.pi / 2.0


class StateSpec(_Record):
    """Declarative state description with the canonical JSON encoding
    ``{"family": ..., "params": {...}, "cutoff": D}``."""

    __slots__ = __match_args__ = ("family", "params", "cutoff")

    def __init__(self, family: str, params: Mapping[str, Any] | None = None,
                 cutoff: int | None = None):
        if not isinstance(family, str) or family not in _FAMILY_PARAMS:
            raise ValueError(f"unknown state family {family!r}; "
                             f"expected one of {', '.join(_FAMILY_PARAMS)}")
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

    def build(self):
        """The dense ``QuantumState`` of ``states.build_state``."""
        from .states import build_state

        return build_state(self)


# family -> the names of its parameters; the spin families take no cutoff
_FAMILY_PARAMS = {"fock_pair": {"c"}, "psi2": {"c0"}, "vacuum_mixture": {"p", "c"},
                  "squeezed": {"lambda"}, "bell": {"parties"}, "schmidt": {"alpha", "beta"}}
_SPIN_FAMILIES = frozenset({"bell", "schmidt"})


def _check_spec(spec: StateSpec) -> None:
    """Refuse a spec whose parameters are missing or unknown to its family,
    or that gives a spin family a cutoff."""
    required = _FAMILY_PARAMS[spec.family]
    missing = required - set(spec.params)
    extra = set(spec.params) - required
    if missing:
        raise ValueError(f"family {spec.family!r} is missing parameters {sorted(missing)}")
    if extra:
        raise ValueError(f"family {spec.family!r} does not take parameters {sorted(extra)}")
    if spec.family in _SPIN_FAMILIES and spec.cutoff is not None:
        raise ValueError(f"family {spec.family!r} has no Fock cutoff, got {spec.cutoff}")
