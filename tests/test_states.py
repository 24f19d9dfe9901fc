"""State families and the declarative StateSpec."""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from entwit import (
    DEFAULT,
    QuantumState,
    StateSpec,
    bell,
    build_state,
    expectation,
    fock_pair_superposition,
    kron,
    pair_cutoff,
    schmidt_pair,
    spin_ops,
    squeezed_cutoff,
    squeezed_vacuum,
    vacuum_mixture,
)

from entwit.families import _SPIN_FAMILIES
from entwit.states import _FAMILIES

from _support import fake_sysconf


def test_fock_pair_amplitude_placement():
    D = 8
    s = fock_pair_superposition([0.6, 0.8], D)
    assert s.dims == (D, D)
    amps = s.amplitudes
    assert amps[0] == 0.6                     # |0,0>
    assert amps[2 * D + 2] == 0.8             # |2,2>
    filled = {0, 2 * D + 2}
    assert all(amps[i] == 0 for i in range(D * D) if i not in filled)


def test_fock_pair_norm_and_cutoff_validation():
    with pytest.raises(ValueError):
        fock_pair_superposition([0.6, 0.7])
    with pytest.raises(ValueError):
        fock_pair_superposition([0.6, 0.8], 2)  # top level 2 needs D >= 5
    with pytest.raises(ValueError):
        fock_pair_superposition([])


@pytest.mark.parametrize("c", [[1.0], [0.6, 0.8], [0.6, 0.0, 0.8]])
def test_fock_pair_needs_two_spare_levels_above_the_top(c):
    # x and p move the top level 2N up by one; their products by two
    top = 2 * (len(c) - 1)
    for cutoff in (top + 1, top + 2):
        with pytest.raises(ValueError, match=f"need D >= {top + 3}"):
            fock_pair_superposition(c, cutoff)
    assert fock_pair_superposition(c, top + 3).dims == (top + 3, top + 3)


def test_default_pair_cutoffs():
    assert pair_cutoff(1) == 4
    assert pair_cutoff(2) == 6
    assert pair_cutoff(3) == 8
    with pytest.raises(ValueError):
        pair_cutoff(0)
    with pytest.raises(ValueError, match="'num_coeffs' must be an integer"):
        pair_cutoff(2.5)
    assert pair_cutoff(np.int64(2)) == 6 and type(pair_cutoff(np.int64(2))) is int


def test_squeezed_tail_rule_cutoffs():
    assert squeezed_cutoff(0.1) == 8
    assert squeezed_cutoff(0.3) == 12
    assert squeezed_cutoff(0.5) == 20
    assert squeezed_cutoff(0.7) == 40
    with pytest.raises(ValueError):
        squeezed_cutoff(1.0)


def stepped_cutoff(lam):
    """The cutoff rule evaluated one even D at a time."""
    D = 2
    while abs(lam) ** (2 * D) >= DEFAULT.tail_mass:
        D += 2
    return D


def test_squeezed_cutoff_closed_form_matches_stepping():
    grid = [0.0, 1e-300, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999, 0.9999, -0.9999]
    grid += list(np.linspace(-0.999, 0.999, 801))
    grid += list(1.0 - np.logspace(-4, -1, 40))
    for lam in grid:
        assert squeezed_cutoff(lam) == stepped_cutoff(lam), lam
    assert squeezed_cutoff(0.0) == 2
    assert squeezed_cutoff(0.9) == 132
    assert squeezed_cutoff(0.99) == 1376


@pytest.mark.parametrize("bad,match", [("0.5", "a real number"), (True, "a real number"),
                                       (0.5 + 0.1j, "a real number"), (math.nan, "finite")])
def test_squeezed_cutoff_checks_lambda(bad, match):
    with pytest.raises(ValueError, match=f"'lambda' must be {match}"):
        squeezed_cutoff(bad)


def test_squeezed_near_one_refused_quickly(monkeypatch):
    monkeypatch.setattr(os, "sysconf", fake_sysconf(4096, 2**21))  # 8 GiB
    start = time.perf_counter()
    with pytest.raises(ValueError, match="physical memory"):
        squeezed_vacuum(1.0 - 1e-12)
    assert time.perf_counter() - start < 1.0


def test_squeezed_amplitudes_geometric_and_normalized():
    lam, D = 0.5, 20
    s = squeezed_vacuum(lam)
    assert s.dims == (D, D)
    diag = np.array([s.amplitudes[n * D + n] for n in range(D)])
    ratios = diag[1:] / diag[:-1]
    assert np.allclose(ratios.real, lam)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-14
    # off-diagonal (n != m) entries are all zero
    off = s.amplitudes.copy()
    off[np.arange(D) * D + np.arange(D)] = 0.0
    assert np.all(off == 0)


def test_squeezed_negative_lambda_alternates_sign():
    s = squeezed_vacuum(-0.3)
    D = s.dims[0]
    diag = np.array([s.amplitudes[n * D + n].real for n in range(D)])
    assert diag[0] > 0 and diag[1] < 0 and diag[2] > 0


def test_squeezed_correlators_match_closed_forms():
    # <X(x)X> = 2 lambda/(1 + lambda^2), <Y(x)Y> = -<X(x)X>, <Z(x)Z> = 1
    from entwit import block_spin
    for lam in (0.2, 0.5, -0.4):
        s = squeezed_vacuum(lam)
        X, Y, Z = block_spin(s.dims[0])
        xx = expectation(kron(X, X), s).real
        yy = expectation(kron(Y, Y), s).real
        zz = expectation(kron(Z, Z), s).real
        want = 2 * lam / (1 + lam * lam)
        assert abs(xx - want) < 1e-12
        assert abs(yy + want) < 1e-12
        assert abs(zz - 1.0) < 1e-12


def test_bell_state_and_parity():
    _, _, s_z, _ = spin_ops()
    for n in (2, 3, 4, 5):
        s = bell(n)
        assert s.dims == (2,) * n
        op = s_z
        for _ in range(n - 1):
            op = kron(op, s_z)
        zz = expectation(op, s).real
        assert abs(zz - (1.0 if n % 2 == 0 else 0.0)) < 1e-14
    with pytest.raises(ValueError):
        bell(1)


def test_schmidt_pair_moments():
    alpha, beta = 0.6, 0.8j
    s = schmidt_pair(alpha, beta)
    s_x, _, s_z, _ = spin_ops()
    zz = expectation(kron(s_z, s_z), s).real
    xx = expectation(kron(s_x, s_x), s).real
    assert abs(zz - 1.0) < 1e-14
    assert abs(xx - 2 * (np.conj(alpha) * beta).real) < 1e-14
    with pytest.raises(ValueError):
        schmidt_pair(0.6, 0.7)


def test_vacuum_mixture_density_decomposition():
    p = 0.3
    s = vacuum_mixture(p, [0.6, 0.8], 8)
    psi = fock_pair_superposition([0.6, 0.8], 8)
    vac = np.zeros(64, dtype=complex)
    vac[0] = 1.0
    want = (p * np.outer(psi.amplitudes, psi.amplitudes.conj())
            + (1 - p) * np.outer(vac, vac.conj()))
    assert np.allclose(s.density.data, want)
    with pytest.raises(ValueError):
        vacuum_mixture(1.5, [0.6, 0.8])
    with pytest.raises(ValueError):
        vacuum_mixture(-0.1, [0.6, 0.8])


# --- StateSpec --------------------------------------------------------------


def test_spec_json_round_trip():
    spec = StateSpec("fock_pair", {"c": [0.6, 0.8]}, cutoff=10)
    again = StateSpec.from_json(spec.to_json())
    assert again == spec
    # cutoff omitted from JSON when defaulted
    spec2 = StateSpec("bell", {"parties": 3})
    assert "cutoff" not in spec2.to_json()
    assert StateSpec.from_json(spec2.to_json()) == spec2


def test_spec_rejects_unknown_family_and_fields():
    with pytest.raises(ValueError):
        StateSpec("w_state", {})
    with pytest.raises(ValueError):
        StateSpec.from_json({"family": "bell", "params": {"n": 2}, "seed": 3})
    with pytest.raises(ValueError):
        StateSpec.from_json({"params": {}})
    with pytest.raises(ValueError):
        StateSpec.from_json([1, 2])


@pytest.mark.parametrize("obj,match", [
    ({"family": "bell", "params": 5}, "params must be a mapping, got 5"),
    ({"family": "bell", "params": [["parties", 2]]}, "params must be a mapping"),
    ({"family": ["bell"]}, r"unknown state family \['bell'\]"),
    ({"family": 3}, "unknown state family 3"),
])
def test_spec_refuses_wrong_types_with_value_error(obj, match):
    with pytest.raises(ValueError, match=match):
        StateSpec.from_json(obj)
    with pytest.raises(ValueError, match=match):
        StateSpec(obj["family"], obj.get("params"))


def test_spec_param_validation():
    with pytest.raises(ValueError):
        build_state(StateSpec("bell", {}))                      # missing n
    with pytest.raises(ValueError):
        build_state(StateSpec("bell", {"parties": 2, "extra": 1}))    # extra param
    with pytest.raises(ValueError):
        build_state(StateSpec("psi2", {"c0": 1.2}))             # out of range
    with pytest.raises(ValueError):
        build_state(StateSpec("schmidt", {"alpha": "x", "beta": 0.8}))


def test_spec_build_matches_direct_constructors():
    cases = [
        (StateSpec("fock_pair", {"c": [0.6, 0.8]}),
         fock_pair_superposition([0.6, 0.8])),
        (StateSpec("vacuum_mixture", {"p": 0.4, "c": [1.0]}),
         vacuum_mixture(0.4, [1.0])),
        (StateSpec("squeezed", {"lambda": 0.3}), squeezed_vacuum(0.3)),
        (StateSpec("bell", {"parties": 3}), bell(3)),
        (StateSpec("schmidt", {"alpha": 0.6, "beta": [0.0, 0.8]}),
         schmidt_pair(0.6, 0.8j)),
    ]
    for spec, direct in cases:
        built = spec.build()
        assert built.dims == direct.dims
        assert np.allclose(built.density.data, direct.density.data)


def test_families_build_their_state_once(monkeypatch):
    # a family checks its parameters and builds its amplitudes itself; the
    # checked entry for caller-supplied amplitudes is not run a second time
    specs = [StateSpec("fock_pair", {"c": [0.6, 0.8]}, 9), StateSpec("psi2", {"c0": 0.9}),
             StateSpec("vacuum_mixture", {"p": 0.4, "c": [0.6, 0.8]}),
             StateSpec("squeezed", {"lambda": -0.7}), StateSpec("bell", {"parties": 3}),
             StateSpec("schmidt", {"alpha": [0.6, 0.0], "beta": 0.8j})]
    assert {spec.family for spec in specs} == set(_FAMILIES)

    def refuse(*args, **kwargs):
        raise AssertionError("QuantumState.pure called")

    with monkeypatch.context() as patch:
        patch.setattr(QuantumState, "pure", refuse)
        built = [build_state(spec) for spec in specs] + [vacuum_mixture(0.0, [1.0], 4)]
    for s in built:
        assert not s.weights.flags.writeable and not s.vectors.flags.writeable
        assert s.vectors.shape[1] == math.prod(s.dims)
        for v in s.vectors:  # each component passes the check it skipped
            assert np.array_equal(QuantumState.pure(v, s.dims).amplitudes, v)


def test_every_named_family_has_one_constructor():
    # the parameter names (numpy-free, for the spec) and the dense
    # constructors are two tables over the same families, in one order
    from entwit.families import _FAMILY_PARAMS

    assert list(_FAMILIES) == list(_FAMILY_PARAMS)


def test_spec_psi2_equals_two_coefficient_family():
    c0 = 0.997
    built = build_state(StateSpec("psi2", {"c0": c0}))
    direct = fock_pair_superposition([c0, math.sqrt(1 - c0 * c0)], 6)
    assert np.allclose(built.amplitudes, direct.amplitudes)


def test_spec_resolved_cutoffs():
    # a Fock family's built state has its cutoff as the side of each mode
    assert build_state(StateSpec("fock_pair", {"c": [0.6, 0.8]})).dims[0] == 6
    assert build_state(StateSpec("fock_pair", {"c": [0.6, 0.8]}, cutoff=12)).dims[0] == 12
    assert build_state(StateSpec("psi2", {"c0": 0.9})).dims[0] == 6
    assert build_state(StateSpec("squeezed", {"lambda": 0.5})).dims[0] == 20
    # the two-level families have no cutoff
    assert {"bell", "schmidt"} == _SPIN_FAMILIES


def test_size_refusal_counts_working_copies(monkeypatch):
    # 2 MiB of physical memory leaves a 1 MiB budget for a state and the
    # four working copies a condition makes of it
    monkeypatch.setattr(os, "sysconf", fake_sysconf(4096, 512))
    assert bell(14).side == 2**14  # 256 KiB, 1 MiB with its copies
    with pytest.raises(ValueError, match="physical memory"):
        bell(15)
    with pytest.raises(ValueError, match="physical memory"):
        squeezed_vacuum(0.5, cutoff=200)


def test_size_refusal_counts_ensemble_not_density(monkeypatch):
    # the 1 MiB budget holds a cutoff-64 mixture, two 64 KiB vectors (512 KiB
    # with its copies), but not its 256 MiB density
    monkeypatch.setattr(os, "sysconf", fake_sysconf(4096, 512))
    s = vacuum_mixture(0.5, [0.8, 0.6], cutoff=64)
    assert s.vectors.shape == (2, 64 * 64)
    with pytest.raises(ValueError, match="physical memory"):
        s.density


def test_size_refusal_skipped_without_sysconf(monkeypatch):
    monkeypatch.delattr(os, "sysconf")
    assert bell(3).dims == (2, 2, 2)
    assert vacuum_mixture(0.5, [0.8, 0.6]).kind == "mixed"


# --- integer fields ----------------------------------------------------------


@pytest.mark.parametrize("bad", [2.7, 3.0, "3", True, None])
def test_bell_rejects_non_integer_parties(bad):
    with pytest.raises(ValueError, match="'parties' must be an integer"):
        bell(bad)
    with pytest.raises(ValueError, match="'parties' must be an integer"):
        build_state(StateSpec.from_json({"family": "bell", "params": {"parties": bad}}))


@pytest.mark.parametrize("bad", [8.9, 8.0, "8", False])
def test_spec_rejects_non_integer_cutoff(bad):
    with pytest.raises(ValueError, match="'cutoff' must be an integer"):
        StateSpec.from_json({"family": "squeezed", "params": {"lambda": 0.3}, "cutoff": bad})


def test_integer_fields_accept_numpy_integers():
    assert bell(np.int64(3)).dims == (2, 2, 2)
    spec = StateSpec("squeezed", {"lambda": 0.3}, cutoff=np.int32(8))
    assert spec.cutoff == 8 and type(spec.cutoff) is int
    assert spec.build().dims == (8, 8)


# --- real fields -------------------------------------------------------------

REAL_FIELD_CASES = [
    ({"family": "squeezed", "params": {"lambda": "0.5"}}, "lambda"),
    ({"family": "squeezed", "params": {"lambda": True}}, "lambda"),
    ({"family": "squeezed", "params": {"lambda": None}}, "lambda"),
    ({"family": "psi2", "params": {"c0": True}}, "c0"),
    ({"family": "psi2", "params": {"c0": "0.5"}}, "c0"),
    ({"family": "vacuum_mixture", "params": {"p": "0.5", "c": [1.0]}}, "p"),
    ({"family": "vacuum_mixture", "params": {"p": False, "c": [1.0]}}, "p"),
    ({"family": "vacuum_mixture", "params": {"p": 0.5, "c": ["1"]}}, "c"),
    ({"family": "fock_pair", "params": {"c": ["1"]}}, "c"),
    ({"family": "fock_pair", "params": {"c": "1"}}, "c"),
    ({"family": "fock_pair", "params": {"c": 1.0}}, "c"),
    ({"family": "fock_pair", "params": {"c": [0.6, True]}}, "c"),
    ({"family": "schmidt", "params": {"alpha": True, "beta": 0.0}}, "alpha"),
    ({"family": "schmidt", "params": {"alpha": 1.0, "beta": [0.0, "0"]}}, "beta"),
    ({"family": "schmidt", "params": {"alpha": [False, 1.0], "beta": 0.0}}, "alpha"),
]


@pytest.mark.parametrize("spec,name", REAL_FIELD_CASES)
def test_spec_rejects_non_real_fields(spec, name):
    with pytest.raises(ValueError, match=f"'{name}' must be a (real number|list of real)"):
        build_state(StateSpec.from_json(spec))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_real_fields_reject_non_finite_values(bad):
    for build, name in [(lambda: squeezed_vacuum(bad), "lambda"),
                        (lambda: vacuum_mixture(bad, [1.0]), "p"),
                        (lambda: fock_pair_superposition([bad, 0.0]), "c"),
                        (lambda: build_state(StateSpec("psi2", {"c0": bad})), "c0"),
                        (lambda: build_state(StateSpec("schmidt", {"alpha": [bad, 0.0],
                                                                   "beta": 0.0})), "alpha")]:
        with pytest.raises(ValueError, match=f"'{name}' must be finite"):
            build()


def test_library_constructors_reject_non_real_parameters():
    for build, name in [(lambda: squeezed_vacuum("0.5"), "lambda"),
                        (lambda: squeezed_vacuum(True), "lambda"),
                        (lambda: vacuum_mixture("0.5", [1.0]), "p"),
                        (lambda: vacuum_mixture(0.5, [True]), "c"),
                        (lambda: fock_pair_superposition(np.array(["1"])), "c")]:
        with pytest.raises(ValueError, match=f"'{name}' must be a real number"):
            build()


def test_real_fields_accept_numpy_and_integer_reals():
    assert squeezed_vacuum(np.float32(0.25)).dims == squeezed_vacuum(0.25).dims
    assert fock_pair_superposition(np.array([0.6, 0.8])).dims == (6, 6)
    assert fock_pair_superposition([1]).dims == (4, 4)
    assert vacuum_mixture(np.float64(0.5), (np.float32(1.0),)).kind == "mixed"
    spec = StateSpec("schmidt", {"alpha": 1, "beta": [np.int64(0), 0]})
    assert np.array_equal(spec.build().amplitudes, [1, 0, 0, 0])
    assert build_state(StateSpec("fock_pair", {"c": np.array([0.6, 0.8])})).dims[0] == 6


def test_library_constructors_reject_non_integer_cutoffs():
    for build in [lambda: squeezed_vacuum(0.5, cutoff=8.9),
                  lambda: squeezed_vacuum(0.5, cutoff=True),
                  lambda: fock_pair_superposition([1.0], cutoff=4.7)]:
        with pytest.raises(ValueError, match="'cutoff' must be an integer"):
            build()
    assert squeezed_vacuum(0.5, cutoff=np.int64(8)).dims == (8, 8)
    assert fock_pair_superposition([1.0], cutoff=4).dims == (4, 4)


def test_squeezed_vacuum_refuses_a_zero_cutoff():
    with pytest.raises(ValueError, match="cutoff must be positive, got 0"):
        squeezed_vacuum(0.5, cutoff=0)


@pytest.mark.parametrize("family,params", [("bell", {"parties": 3}),
                                           ("schmidt", {"alpha": 0.6, "beta": 0.8})])
def test_spin_families_refuse_a_cutoff(family, params):
    with pytest.raises(ValueError, match=f"family '{family}' has no Fock cutoff, got 5"):
        build_state(StateSpec(family, params, 5))
    assert build_state(StateSpec(family, params)).dims[0] == 2


def test_schmidt_pair_rejects_non_numeric_amplitudes():
    for alpha, beta in [("1", 0), (True, False), (0.6, "0.8"), (0.6, [0.8, None])]:
        name = "beta" if alpha == 0.6 else "alpha"
        with pytest.raises(ValueError, match=f"'{name}' must be a real number"):
            schmidt_pair(alpha, beta)
    with pytest.raises(ValueError, match="'alpha' must be finite"):
        schmidt_pair(complex(float("nan"), 0.0), 0.0)


def test_schmidt_pair_accepts_python_and_numpy_complex():
    reference = schmidt_pair(0.6, 0.8j).amplitudes
    for alpha, beta in [(np.complex128(0.6), np.complex128(0.8j)),
                        (np.float64(0.6), 0.8j), ([0.6, 0.0], [0, 0.8])]:
        assert np.allclose(schmidt_pair(alpha, beta).amplitudes, reference)
