"""Workload definitions: the job lists, their memory estimates, and the
seeded inputs of the qubit sweep.

Every job is sized before it is added: ``estimate_bytes`` bounds its peak
memory from its dimensions, and ``workload_jobs`` refuses any job whose
estimate exceeds half of the machine's RAM.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("bosonic-dense", "qubit-sweep", "solve-exact")

# A bipartite condition keeps up to ten dense operators of the lifted side
# alive at once (ramanujan with n = 4 peaks at 7.5 of them); ``base`` covers
# the interpreter, numpy and entwit.
LIVE_OPERATORS = 10
BASE_BYTES = 64 << 20
JOB_TIMEOUT_S = 40.0

# The squeezed state the witness jobs share, and the operator specs they use.
WITNESS_LAMBDA = 0.7
WITNESS_CONDITIONS = (("variance_product", None), ("variance_sum", None),
                      ("uffink", None), ("four_variance", None),
                      ("ramanujan", 2), ("ramanujan", 4))
# The expansion of the left side takes about 0.35 s.
EVAL_PAIR = ("(a + a' + b + b')^12", "(a + a' + b + b')^6*(a + a' + b + b')^6")

# Qubit-sweep shape: states of each kind per factor-dimension pair.
SWEEP_DIMS = ((2, 2), (2, 3), (3, 3))
SWEEP_KINDS = ("product", "pure", "separable_mix", "density")
SWEEP_PER_KIND = 20
SWEEP_BELL_PARTIES = tuple(range(2, 9))


@dataclass(frozen=True)
class Job:
    """One unit of work: an ``entwit`` invocation or one sweep program run."""

    name: str
    argv: tuple[str, ...]
    side: int            # largest operator side the job builds
    kind: str = "cli"    # "cli" or "sweep"


def squeezed_cutoff(lam: float, tail: float = 1e-12) -> int:
    """The Fock cutoff entwit picks for a squeezed state (smallest even D
    with lambda^(2D) below the tail budget)."""
    D = 2
    while abs(lam) ** (2 * D) >= tail:
        D += 2
    return D


def estimate_bytes(job: Job) -> int:
    return BASE_BYTES + LIVE_OPERATORS * 16 * job.side * job.side


def ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _bosonic_dense(work: Path) -> list[Job]:
    jobs = []
    for lam in (0.5, 0.7, 0.8):
        D = squeezed_cutoff(lam)
        jobs.append(Job(f"squeezed-{lam}", ("squeezed", "--lambda", str(lam)), D * D))
    state = _write_json(work / "state.json",
                        {"family": "squeezed", "params": {"lambda": WITNESS_LAMBDA}})
    D = squeezed_cutoff(WITNESS_LAMBDA)
    for condition, n in WITNESS_CONDITIONS:
        ops = {"A": "blockx", "Aprime": "blocky", "B": "blockx", "Bprime": "blocky"}
        name = f"witness-{condition}"
        if n is not None:
            ops["n"] = n
            name += f"-{n}"
        path = _write_json(work / f"ops-{name}.json", ops)
        jobs.append(Job(name, ("witness", "--state", state, "--ops", path,
                               "--condition", condition), D * D))
    jobs.append(Job("mixture-32", ("mixture", "--p", "0.5", "--coeffs", "0.8,0.6",
                                   "--cutoff", "32"), 32 * 32))
    jobs.append(Job("bell-12-variance", ("bell", "--parties", "12",
                                         "--condition", "variance"), 2 ** 12))
    return jobs


def _solve_exact() -> list[Job]:
    jobs = [Job(f"cmatrix-{n}", ("cmatrix", "--n", str(n)), 1) for n in (200, 2000, 20000)]
    jobs += [Job(f"psi2-{n}", ("psi2", "--scan", str(n)), 1) for n in (200, 20000)]
    jobs.append(Job("identity-complex_norm", ("identity", "--name", "complex_norm"), 1))
    jobs += [Job(f"identity-ramanujan-{n}", ("identity", "--name", "ramanujan", "--n", str(n)), 1)
             for n in (2, 4)]
    jobs.append(Job("eval-power12", ("eval", "--expr-lhs", EVAL_PAIR[0],
                                     "--expr-rhs", EVAL_PAIR[1]), 1))
    jobs.append(Job("schmidt", ("schmidt", "--alpha", "0.6,0", "--beta", "0.8,0"), 4))
    jobs.append(Job("bell-2-ramanujan-4", ("bell", "--parties", "2", "--condition",
                                           "ramanujan", "--n", "4"), 4))
    return jobs


def workload_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    """The workload's jobs in the order the seed gives, each one sized first."""
    if workload == "bosonic-dense":
        jobs = _bosonic_dense(work)
    elif workload == "solve-exact":
        jobs = _solve_exact()
    elif workload == "qubit-sweep":
        path = _write_json(work / "sweep-inputs.json", sweep_inputs(seed))
        jobs = [Job("qubit-sweep", (path,), 2 ** max(SWEEP_BELL_PARTIES), kind="sweep")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    budget = ram_bytes() // 2
    for job in jobs:
        need = estimate_bytes(job)
        if need > budget:
            raise ValueError(f"job {job.name} needs about {need >> 20} MB, more than "
                             f"half of this machine's RAM ({budget >> 20} MB)")
    random.Random(seed).shuffle(jobs)
    return jobs


def encode(arr: np.ndarray) -> dict:
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def decode(obj: dict) -> np.ndarray:
    """Inverse of :func:`encode`."""
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def _unit(gen: np.random.Generator, n: int) -> np.ndarray:
    v = gen.normal(size=n) + 1j * gen.normal(size=n)
    return v / np.linalg.norm(v)


def _hermitian(gen: np.random.Generator, n: int) -> np.ndarray:
    G = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    return 0.5 * (G + G.conj().T)


def sweep_inputs(seed: int) -> dict:
    """Seeded qubit-sweep inputs.

    ``product`` and ``separable_mix`` states are separable by construction,
    so no condition may flag them.  ``pure`` and ``density`` states are
    random and mostly entangled.  The number of states of each kind is
    fixed, so the call counts of a traced pass do not depend on the seed.
    """
    gen = np.random.default_rng(seed)
    states = []
    for dims in SWEEP_DIMS:
        da, db = dims
        for kind in SWEEP_KINDS:
            for _ in range(SWEEP_PER_KIND):
                item = {"dims": list(dims), "separable": kind in ("product", "separable_mix")}
                if kind == "product":
                    item.update(kind="pure", amps=encode(np.kron(_unit(gen, da), _unit(gen, db))))
                elif kind == "pure":
                    item.update(kind="pure", amps=encode(_unit(gen, da * db)))
                elif kind == "separable_mix":
                    weights = gen.uniform(0.1, 1.0, size=3)
                    item.update(kind="mix", weights=(weights / weights.sum()).tolist(),
                                components=[encode(np.kron(_unit(gen, da), _unit(gen, db)))
                                            for _ in range(3)])
                else:
                    G = gen.normal(size=(da * db,) * 2) + 1j * gen.normal(size=(da * db,) * 2)
                    rho = G @ G.conj().T
                    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
                    item.update(kind="density", density=encode(rho))
                item["ops"] = [encode(_hermitian(gen, d)) for d in (da, da, db, db)]
                alpha, beta = _unit(gen, 2)
                item["schmidt"] = [[alpha.real, alpha.imag], [beta.real, beta.imag]]
                states.append(item)
    return {"states": states, "bell_parties": list(SWEEP_BELL_PARTIES)}
