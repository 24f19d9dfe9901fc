"""Seeded random generators and a fake ``os.sysconf``, shared across the
test modules."""

from __future__ import annotations

import numpy as np

from entwit import ComplexMatrix, QuantumState, mix


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
