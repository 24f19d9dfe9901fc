"""Shared numerical tolerances.

Every quantity handled by this package is O(1) to O(10^2), so absolute
tolerances are used throughout.  The table below is the only setting: no
function takes a per-call override, except the bisection tolerance ``tol``
of ``optimize.min_eigenvalue`` (``cmatrix --tol``; ``convergence_study``
passes it on).  The CLI echoes the table under ``meta.tolerances``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Tolerances", "DEFAULT"]


@dataclass(frozen=True)
class Tolerances:
    state_norm: float = 1e-12       # pure-state normalization
    density_atol: float = 1e-12     # density Hermiticity / trace deviation
    eigenvalue_floor: float = 1e-10  # most negative admissible density eigenvalue
    hermitian: float = 1e-10        # observable Hermiticity (max-abs deviation)
    variance_clamp: float = 1e-6    # variances below -this are an error
    violation: float = 1e-9         # witness violation threshold on delta
    ratio_guard: float = 1e-12      # smallest denominator for the V ratio
    tail_mass: float = 1e-12        # truncation tail bound for cutoff rules

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


DEFAULT = Tolerances()
