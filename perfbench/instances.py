"""Seeded planted-solution uniform 3-SAT instances written as DIMACS.

A hidden assignment is drawn first; candidate clauses (K distinct variables,
uniform signs) are kept only when the hidden assignment satisfies them. Every
instance is therefore satisfiable and P(h=0) > 0 under the uniform state.
The generator is independent of the program under test: the program sees
only the DIMACS files.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

K = 3  # literals per clause
_BATCH = 256  # candidate clauses drawn per RNG call


def planted_ksat(entropy: list[int], n: int, m: int) -> tuple[list[int], list[list[int]]]:
    """Return (hidden 0/1 assignment, m signed-literal clauses).

    ``entropy`` seeds a numpy SeedSequence, so equal entropy gives an equal
    instance on every platform.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    hidden = rng.integers(0, 2, size=n)
    clauses: list[list[int]] = []
    while len(clauses) < m:
        # K distinct variables per row: the first K columns of a row-wise
        # random permutation ranking.
        variables = np.argsort(rng.random((_BATCH, n)), axis=1)[:, :K]
        negated = rng.integers(0, 2, size=(_BATCH, K)).astype(bool)
        satisfied = ((hidden[variables] == 1) != negated).any(axis=1)
        for row, neg in zip(variables[satisfied], negated[satisfied]):
            clauses.append([int(v + 1) * (-1 if ng else 1) for v, ng in zip(row, neg)])
            if len(clauses) == m:
                break
    return hidden.tolist(), clauses


def satisfies(assignment: list[int], clauses: list[list[int]]) -> bool:
    """True iff every clause has a literal made true by the 0/1 assignment."""
    return all(
        any((assignment[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def to_dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join(lines) + "\n"


def write_instance(path: Path, n: int, clauses: list[list[int]]) -> str:
    """Write the DIMACS file and return its sha256."""
    data = to_dimacs(n, clauses).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
