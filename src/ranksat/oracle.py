"""Exact, simulation-independent references over the full assignment space.

Everything here walks ranks 0..2**n - 1 in ascending order (decoded with the
package-wide bit convention), so enumeration results, solution listings and
exact state distributions are mutually consistent by construction. A resource
guard refuses qubit counts whose enumeration would no longer be a desk-scale
job; tests and the CLI stay well inside it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .cnf import ClauseArrays, CnfFormula, CostParams
from .qsim import AngleVector, bits_from_ranks, prepare_state
from .shaping import QuantileSet, nearest_rank_quantile, rows_to_csv

__all__ = [
    "GuardError",
    "DistributionTable",
    "GUARD_MAX_N",
    "enumerate_h",
    "list_solutions",
    "exact_h_distribution",
    "exact_g_distribution",
    "exact_shaped_cost",
]

GUARD_MAX_N = 26
_CHUNK = 1 << 16


class GuardError(RuntimeError):
    """Raised when an enumeration would exceed the resource guard."""


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Distribution over h-values: assignment counts plus probability mass.

    For plain enumeration the probability is count / 2**n; for a prepared
    state it is the total quantum probability of the bucket. Empty buckets
    are omitted.
    """

    h_values: np.ndarray     # int64, ascending
    counts: np.ndarray       # int64, assignments per bucket
    probabilities: np.ndarray
    domain_size: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.domain_size:
            raise ValueError("bucket counts must sum to the domain size")
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("bucket probabilities must sum to 1")

    def as_dict(self) -> dict[int, tuple[int, float]]:
        return {
            int(h): (int(c), float(p))
            for h, c, p in zip(self.h_values, self.counts, self.probabilities)
        }

    def count_at(self, h: int) -> int:
        idx = np.nonzero(self.h_values == h)[0]
        return int(self.counts[idx[0]]) if idx.size else 0

    def probability_at(self, h: int) -> float:
        idx = np.nonzero(self.h_values == h)[0]
        return float(self.probabilities[idx[0]]) if idx.size else 0.0

    def cumfreq(self) -> np.ndarray:
        cum = np.cumsum(self.probabilities)
        return cum / cum[-1]

    def to_json_obj(self) -> list[dict]:
        cum = self.cumfreq()
        return [
            {"h": int(h), "count": int(c), "probability": float(p), "cumfreq": float(cf)}
            for h, c, p, cf in zip(self.h_values, self.counts, self.probabilities, cum)
        ]

    def to_csv(self) -> str:
        return rows_to_csv(self.to_json_obj(), "h")


def _require_guard(f: CnfFormula, max_n: int) -> None:
    if f.n > max_n:
        raise GuardError(
            f"enumeration over n={f.n} variables needs 2**{f.n} evaluations; "
            f"the resource guard allows n <= {max_n}"
        )


def _rank_chunks(n: int) -> Iterator[np.ndarray]:
    """Ascending rank ranges; chunked so the bit matrices stay small."""
    domain = 1 << n
    for start in range(0, domain, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, domain), dtype=np.int64)


def _state_chunks(
    f: CnfFormula, angles: AngleVector
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(bits, probability) of every assignment under the prepared state, by chunk."""
    p1 = prepare_state(f.n, angles).p_one()
    p0 = 1.0 - p1
    for ranks in _rank_chunks(f.n):
        bits = bits_from_ranks(ranks, f.n)
        probs = np.ones(len(ranks), dtype=np.float64)
        for j in range(f.n):
            probs *= np.where(bits[:, j] == 1, p1[j], p0[j])
        yield bits, probs


def enumerate_h(f: CnfFormula, max_n: int = GUARD_MAX_N) -> DistributionTable:
    """Exact count of assignments per unsatisfied-clause value."""
    _require_guard(f, max_n)
    arrays = ClauseArrays(f)
    counts = np.zeros(f.m + 1, dtype=np.int64)
    for ranks in _rank_chunks(f.n):
        h = arrays.h(bits_from_ranks(ranks, f.n))
        counts += np.bincount(h, minlength=f.m + 1)
    domain = 1 << f.n
    support = np.nonzero(counts)[0]
    return DistributionTable(
        h_values=support.astype(np.int64),
        counts=counts[support],
        probabilities=counts[support] / domain,
        domain_size=domain,
    )


def list_solutions(f: CnfFormula, max_n: int = GUARD_MAX_N) -> list[list[int]]:
    """All satisfying assignments, in ascending rank order."""
    _require_guard(f, max_n)
    arrays = ClauseArrays(f)
    solutions: list[list[int]] = []
    for ranks in _rank_chunks(f.n):
        bits = bits_from_ranks(ranks, f.n)
        sat = arrays.h(bits) == 0
        solutions.extend([int(b) for b in row] for row in bits[sat])
    return solutions


def exact_h_distribution(
    f: CnfFormula, angles: AngleVector, max_n: int = GUARD_MAX_N
) -> DistributionTable:
    """Infinite-shot h-distribution of the prepared state.

    Accumulates |<x|state>|**2 into bucket h(x) for every assignment x.
    """
    _require_guard(f, max_n)
    arrays = ClauseArrays(f)
    counts = np.zeros(f.m + 1, dtype=np.int64)
    mass = np.zeros(f.m + 1, dtype=np.float64)
    for bits, probs in _state_chunks(f, angles):
        h = arrays.h(bits)
        counts += np.bincount(h, minlength=f.m + 1)
        mass += np.bincount(h, weights=probs, minlength=f.m + 1)
    domain = 1 << f.n
    support = np.nonzero(counts)[0]
    return DistributionTable(
        h_values=support.astype(np.int64),
        counts=counts[support],
        probabilities=mass[support],
        domain_size=domain,
    )


def exact_g_distribution(
    f: CnfFormula,
    angles: AngleVector,
    params: CostParams,
    max_n: int = GUARD_MAX_N,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cost distribution of the prepared state.

    Returns (values, mass): ascending distinct g-values and the quantum
    probability carried by each. Masses are summed per chunk first, then
    across chunks in ascending chunk order; ``bincount`` adds in index order,
    so the merge is deterministic.
    """
    _require_guard(f, max_n)
    arrays = ClauseArrays(f)
    chunk_values, chunk_mass = [], []
    for bits, probs in _state_chunks(f, angles):
        values, inverse = np.unique(arrays.g(bits, params), return_inverse=True)
        chunk_values.append(values)
        chunk_mass.append(np.bincount(inverse, weights=probs))
    values, inverse = np.unique(np.concatenate(chunk_values), return_inverse=True)
    return values, np.bincount(inverse, weights=np.concatenate(chunk_mass))


def exact_shaped_cost(
    f: CnfFormula,
    angles: AngleVector,
    params: CostParams,
    levels: QuantileSet,
    max_n: int = GUARD_MAX_N,
) -> float:
    """Exact mean cost plus exact nearest-rank quantiles of the state.

    Cumulative frequencies run over probability mass, with the same
    smallest-value-reaching-p rule as the sampled estimator.
    """
    values, mass = exact_g_distribution(f, angles, params, max_n=max_n)
    total = float(mass.sum())
    mean = float(np.dot(values, mass) / total)
    cum = np.cumsum(mass) / total
    return mean + sum(nearest_rank_quantile(values, cum, p) for p in levels)
