"""Seeded random generators, a fake ``os.sysconf``, the dense moment
oracle and the float-rounding oracle of the CLI's JSON output, shared
across the test modules."""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from entwit import ComplexMatrix, QuantumState, mix
from entwit.config import DEFAULT


def fake_sysconf(page_size, pages):
    """Stand-in for ``os.sysconf`` reporting ``pages`` of ``page_size`` bytes."""
    return lambda name: {"SC_PAGE_SIZE": page_size, "SC_PHYS_PAGES": pages}[name]


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unit_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure(gen: np.random.Generator, dims) -> QuantumState:
    side = int(np.prod(dims))
    return QuantumState.pure(random_unit_vector(gen, side), dims)


def random_density(gen: np.random.Generator, side: int) -> np.ndarray:
    G = gen.normal(size=(side, side)) + 1j * gen.normal(size=(side, side))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_mixed(gen: np.random.Generator, dims) -> QuantumState:
    side = int(np.prod(dims))
    return QuantumState.mixed(random_density(gen, side), dims)


def random_hermitian(gen: np.random.Generator, dim: int, scale: float = 1.0) -> ComplexMatrix:
    G = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return ComplexMatrix(scale * 0.5 * (G + G.conj().T), (dim,))


def random_product_pure(gen: np.random.Generator, dims) -> QuantumState:
    """|u1> (x) ... (x) |uk> with independent random unit factors."""
    amps = np.ones(1, dtype=np.complex128)
    for d in dims:
        amps = np.kron(amps, random_unit_vector(gen, d))
    return QuantumState.pure(amps, dims)


def random_separable_mixture(gen: np.random.Generator, dims, terms: int = 4) -> QuantumState:
    """Convex mixture of random product pure states — separable by construction."""
    states = [random_product_pure(gen, dims) for _ in range(terms)]
    w = gen.uniform(0.1, 1.0, size=terms)
    return mix(states, w / w.sum())


# --- dense moment oracle -------------------------------------------------------
#
# ``expectation``, ``_second_moment`` and ``variance`` read the state's dense
# density (or its amplitude vector), a route independent of the factor-by-factor
# evaluation in ``entwit.hilbert`` that the tests check against them.

def _check_state_dims(A: ComplexMatrix, s: QuantumState, what: str) -> None:
    if A.dims != s.dims:
        raise ValueError(f"{what}: operator dims {A.dims} do not match state dims {s.dims}")


def expectation(A: ComplexMatrix, s: QuantumState) -> complex:
    """``<psi|A|psi>`` for pure states, ``trace(rho A)`` for mixed ones.

    The result is complex in general; for a Hermitian ``A`` the imaginary
    part is round-off only (|Im| <= 1e-10 for the magnitudes handled here).
    """
    _check_state_dims(A, s, "expectation")
    if s.kind == "pure":
        return complex(np.vdot(s.amplitudes, A.data @ s.amplitudes))
    return complex(np.einsum("ij,ji->", s.density.data, A.data))


def _second_moment(A: ComplexMatrix, s: QuantumState) -> float:
    """``<A^2>`` for Hermitian A, without forming the matrix square."""
    if s.kind == "pure":
        v = A.data @ s.amplitudes
        return float(np.real(np.vdot(v, v)))
    B = A.data @ s.density.data
    # trace(rho A^2) = trace((A rho) A) by cyclicity
    return float(np.real(np.sum(B.T * A.data)))


def variance(A: ComplexMatrix, s: QuantumState, *,
             hermitian_atol: float = DEFAULT.hermitian,
             clamp: float = DEFAULT.variance_clamp) -> float:
    """``<A^2> - <A>^2`` for a Hermitian observable.

    Tiny negative round-off (above ``-clamp``) is clamped to zero; a value
    below ``-clamp`` signals misuse and raises.
    """
    _check_state_dims(A, s, "variance")
    _require_hermitian(A.hermiticity_defect(), hermitian_atol)
    mean = expectation(A, s).real
    return _clamped_variance(_second_moment(A, s), mean, clamp)


def _require_hermitian(defect: float, atol: float = DEFAULT.hermitian,
                       what: str = "max deviation") -> None:
    """Reject an observable whose Hermiticity ``defect`` exceeds ``atol``."""
    if defect > atol:
        raise ValueError(f"variance requires a Hermitian observable "
                         f"({what} {defect:.3e} > {atol})")


def _clamped_variance(second: float, mean: float,
                      clamp: float = DEFAULT.variance_clamp) -> float:
    """``second - mean**2``, with round-off below zero (above ``-clamp``)
    clamped to zero and anything lower rejected."""
    var = second - mean * mean
    if var < 0.0:
        if var < -clamp:
            raise ValueError(f"variance {var:.3e} is negative beyond round-off")
        var = 0.0
    return var


# --- JSON output oracle ----------------------------------------------------------
#
# ``json.dumps(round_floats(doc), indent=2)`` is the document the CLI prints,
# built whole; ``entwit.cli._write_json`` writes the same bytes piece by piece.

def round_floats(obj: Any) -> Any:
    """Round every float to 12 significant digits (bools and ints untouched)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Mapping):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value) for value in obj]
    return obj
