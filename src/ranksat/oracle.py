"""Exact references over the full assignment space, by rank-indexed tables.

Every function works on tables with one entry per rank 0..2**n - 1, decoded
with the package-wide bit convention: the weighted count of clauses each
assignment leaves unsatisfied, each 2**16-rank block one matrix product of the
clauses' failing rows over its high and over its low rank bits, summed in
float32 below 2**24 and in float64 above, so exactly in any order; and the
state probability, built by Kronecker doubling. The tables do not go through
the GA's batch scorer, so the oracle checks it independently. Masses are
summed per 2**16-rank block, the blocks in rank order, which fixes every exact
distribution to the last bit. A resource guard refuses qubit counts whose
tables would no longer be a desk-scale job.

The formula tables do not depend on the angles, so each is built at most once
per formula object: the h table with its count per h-level, and the d table,
the summed i**2 of each rank's unsatisfied clauses (see ``ranksat.cnf``). One
cache slot holds the tables of the last formula the oracle saw, through a
weak reference, so they are freed with the formula and an equal but
separately parsed formula builds its own. Cached arrays are read-only.

The h-distributions are ``CostHistogram``s over the nonempty h-levels: the
counts are assignments and the probabilities the state's mass at each level.

The shaped cost's quantiles are exact costs g = zeta*h + d, taken in two steps
(``_quantiles``): the h-level from the h-level masses, then the d among that
level's ranks, whose masses are added per distinct d once per chosen h-level;
its mean is a float sum within a few ulps.
"""
from __future__ import annotations

import weakref

import numpy as np

from .cnf import CnfFormula, CostParams, _cost_base, _require_default_params, d_max
from .qsim import AngleVector, bits_from_ranks, prepare_state
from .shaping import CostHistogram, QuantileSet, nearest_rank_quantile

__all__ = [
    "GuardError",
    "GUARD_MAX_N",
    "enumerate_h",
    "list_solutions",
    "exact_h_distribution",
    "exact_g_distribution",
    "exact_shaped_cost",
]

GUARD_MAX_N = 26
_BLOCK = 1 << 16
_LOW_BITS = 10


class GuardError(RuntimeError):
    """Raised when an enumeration would exceed the resource guard."""


def _fails(patterns: np.ndarray, mask: np.ndarray, want: np.ndarray) -> np.ndarray:
    """(clauses, patterns) bools: whether every literal of each clause on the
    ``mask`` bits fails at each bit pattern, i.e. the bits equal ``want``."""
    differ = patterns ^ want[:, None]
    differ &= mask[:, None]
    return differ == 0


def _unsat_table(f: CnfFormula, weights: list[int]) -> np.ndarray:
    """Per rank, the summed weight of the clauses the assignment leaves unsatisfied.

    A clause is unsatisfied where its literals on the low rank bits (variables
    1.._LOW_BITS) and on the high bits all fail, so a 2**16-rank block, 64 high
    by 2**10 low bit patterns, is ``A.T @ (w * B)``: A and B the clauses' 0/1
    failing rows over the block's high and over the low patterns, w the weights.
    The entries are integers of at most ``sum(weights)``, summed in float32 when
    that is below 2**24, else in float64 (below 2**53 by ``MAX_EXACT_CLAUSES``):
    every partial sum is exact, so the table cannot depend on the BLAS kernel or
    its thread count. Besides the table, it holds m by 2**10 arrays of at most 8
    bytes an entry, ``w * B`` among them (745 KB at m=91, 105 MB at the clause
    limit), and per block A (m by 64) and the product (64 by 2**10).
    """
    low, total = min(f.n, _LOW_BITS), sum(weights)
    work = np.float32 if total < 1 << 24 else np.float64
    lits = [(i, lit.variable - 1, lit.negated)
            for i, c in enumerate(f.clauses) for lit in c.literals]
    clause, bit, negated = np.array(lits, dtype=np.int64).reshape(-1, 3).T
    mask, want = np.zeros((2, f.m), dtype=np.int64)  # per clause its literals' bits, negated ones
    np.add.at(mask, clause, 1 << bit)
    np.add.at(want, clause, negated << bit)
    wb = _fails(np.arange(1 << low), mask % (1 << low), want) * np.array(weights, work)[:, None]
    table = np.empty((1 << (f.n - low), 1 << low), dtype=np.min_scalar_type(total))
    rows = _BLOCK >> low
    for start in range(0, len(table), rows):
        a = _fails(np.arange(start, min(start + rows, len(table))), mask >> low, want >> low)
        table[start:start + rows] = a.T.astype(work) @ wb
    return table.reshape(-1)


class _TableSlot:
    """The tables of the last formula the oracle saw, by name, held through a
    weak reference whose callback empties the slot when the formula is freed."""

    def __init__(self):
        self.formula: weakref.ref | None = None
        self.tables: dict[str, np.ndarray] = {}

    def forget(self, ref: weakref.ref) -> None:
        if ref is self.formula:
            self.formula, self.tables = None, {}


_SLOT = _TableSlot()


def _table(f: CnfFormula, name: str, max_n: int) -> np.ndarray:
    """Table ``name`` of ``f`` after the resource guard, built on first use and
    cached read-only: "h", per rank the number of unsatisfied clauses; "counts",
    the int64 number of ranks at each h in 0..m; "d", per rank the summed i**2
    of the unsatisfied clauses i."""
    if f.n > max_n:
        raise GuardError(
            f"enumeration over n={f.n} variables needs 2**{f.n} evaluations; "
            f"the resource guard allows n <= {max_n}"
        )
    if _SLOT.formula is None or _SLOT.formula() is not f:
        _SLOT.formula, _SLOT.tables = weakref.ref(f, _SLOT.forget), {}
    table = _SLOT.tables.get(name)
    if table is None:
        table = (_block_bincount(_table(f, "h", max_n), f.m + 1) if name == "counts" else
                 _unsat_table(f, [1] * f.m if name == "h" else [i * i for i in range(1, f.m + 1)]))
        table.flags.writeable = False
        _SLOT.tables[name] = table
    return table


def _state_probabilities(f: CnfFormula, angles: AngleVector) -> np.ndarray:
    """|<x|state>|**2 of every assignment x, in rank order.

    Qubit j is multiplied in at step j, the same order as a per-rank product
    over j, so each entry is bit-identical to that product.
    """
    p1 = prepare_state(f.n, angles)
    probs = np.empty(1 << f.n)  # step j sets ranks 2**j..2**(j+1)-1 to ranks 0..2**j-1 times q1
    probs[0] = 1.0
    for j, (q0, q1) in enumerate(zip(1.0 - p1, p1)):
        np.multiply(probs[:1 << j], q1, out=probs[1 << j:2 << j])
        probs[:1 << j] *= q0
    return probs


def _block_bincount(
    keys: np.ndarray, size: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """``bincount`` of each 2**16-rank block, the blocks added in rank order.

    The blocks fix the floating-point summation order of the masses, and keep
    ``bincount`` from widening a whole table to int64 at once.
    """
    total = np.zeros(size, dtype=np.int64 if weights is None else np.float64)
    for start in range(0, keys.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        total += np.bincount(keys[block], None if weights is None else weights[block], size)
    return total


def _h_distribution(counts: np.ndarray, mass: np.ndarray) -> CostHistogram:
    """The nonempty h-levels of the h table's ``counts``, with their mass."""
    support = np.nonzero(counts)[0]
    cum = np.cumsum(mass[support])
    return CostHistogram(values=support.astype(np.int64), counts=counts[support],
                         probabilities=mass[support], cumfreq=cum / cum[-1])


def enumerate_h(f: CnfFormula, max_n: int = GUARD_MAX_N) -> CostHistogram:
    """Exact count of assignments per unsatisfied-clause value."""
    counts = _table(f, "counts", max_n)
    return _h_distribution(counts, counts / (1 << f.n))


def list_solutions(f: CnfFormula, max_n: int = GUARD_MAX_N) -> list[list[int]]:
    """All satisfying assignments, in ascending rank order."""
    ranks = np.flatnonzero(_table(f, "h", max_n) == 0)
    return bits_from_ranks(ranks, f.n).tolist()


def exact_h_distribution(
    f: CnfFormula, angles: AngleVector, max_n: int = GUARD_MAX_N
) -> CostHistogram:
    """Infinite-shot h-distribution of the prepared state.

    Accumulates |<x|state>|**2 into bucket h(x) for every assignment x.
    """
    h, counts = _table(f, "h", max_n), _table(f, "counts", max_n)
    return _h_distribution(counts, _block_bincount(h, counts.size, _state_probabilities(f, angles)))


def exact_g_distribution(
    f: CnfFormula, angles: AngleVector, max_n: int = GUARD_MAX_N
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cost distribution of the prepared state: (values, mass), the
    ascending distinct keys zeta*h + d of the h and d tables as exact float64
    g-values, and the quantum probability of each, summed in rank order."""
    base = _cost_base(f.m)
    h, d = _table(f, "h", max_n), _table(f, "d", max_n)
    key = h.astype(np.min_scalar_type(base * f.m + d_max(f.m)))
    key *= base
    key += d
    values, inverse = np.unique(key, return_inverse=True)
    del key
    mass = _block_bincount(inverse, values.size, _state_probabilities(f, angles))
    return values.astype(np.float64), mass


def _quantiles(mass: np.ndarray, h: np.ndarray, d: np.ndarray, probs: np.ndarray,
               zeta: int, levels: QuantileSet) -> np.ndarray:
    """Exact nearest-rank g = zeta*h + d at each level, in two steps as d < zeta.

    ``mass`` weighs each h-level; ``h``, ``d`` and ``probs`` are the per-rank tables. A
    quantile's h-level is the first whose cumulative mass reaches p. Each chosen h-level
    is handled once: its ranks' masses are added per distinct d in rank order, and the d
    of p is the first whose cumulative mass from the bottom reaches p (else the level's
    largest, as float drift may leave the ranks' masses short of the level's).
    """
    cum = np.cumsum(mass)
    at = np.searchsorted(cum / cum[-1], levels.levels).tolist()
    dists = {}
    for level in set(at):
        ranks = np.flatnonzero(h == level)
        values, inverse = np.unique(d[ranks], return_inverse=True)
        below = cum[level - 1] if level else 0.0
        dists[level] = values, (below + np.cumsum(np.bincount(inverse, probs[ranks]))) / cum[-1]
    return np.array([zeta * level + int(nearest_rank_quantile(*dists[level], p))
                     for p, level in zip(levels, at)])


def _exact_cost_terms(f: CnfFormula, angles: AngleVector, levels: QuantileSet, max_n: int):
    """(mean, quantiles): the mean cost g of the state and its exact
    nearest-rank g at each level, from the h and d tables."""
    base, h, d = _cost_base(f.m), _table(f, "h", max_n), _table(f, "d", max_n)
    counts = _table(f, "counts", max_n)
    probs = _state_probabilities(f, angles)
    mass = _block_bincount(h, counts.size, probs)
    dist = _h_distribution(counts, mass)
    total = float(dist.probabilities.sum())
    blocks = [slice(start, start + _BLOCK) for start in range(0, d.size, _BLOCK)]
    d_sum = sum(d[b].astype(np.float64) @ probs[b] for b in blocks)
    mean = float(base * (dist.values @ dist.probabilities) + d_sum) / total
    return mean, _quantiles(mass, h, d, probs, base, levels).astype(float).tolist()


def exact_shaped_cost(
    f: CnfFormula,
    angles: AngleVector,
    params: CostParams,
    levels: QuantileSet,
    max_n: int = GUARD_MAX_N,
) -> float:
    """Exact mean cost plus exact nearest-rank quantiles of the state.

    ``params`` must be ``default_params(f)``. Cumulative frequencies run over
    probability mass, with the same smallest-value-reaching-p rule as the
    sampled estimator. See the module notes for what is exact.
    """
    _require_default_params(f, params)
    mean, quantiles = _exact_cost_terms(f, angles, levels, max_n)
    return mean + sum(quantiles)
