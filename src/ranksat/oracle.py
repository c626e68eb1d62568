"""Exact references over the full assignment space, by rank-indexed tables.

Every function works on tables with one entry per rank 0..2**n - 1, decoded
with the package-wide bit convention: the weighted count of clauses each
assignment leaves unsatisfied, filled clause by clause into slices whose last
axis is the 2**10 contiguous ranks of the low variables, and the state
probability, built by Kronecker doubling. The tables do not go through the
GA's batch scorer, so the oracle checks it independently. Masses are summed
per 2**16-rank block, the blocks in rank order, which fixes every exact
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

The shaped cost's quantiles are ``shaping.level_quantiles`` of the h-level
masses, the one function that also takes the GA's sampled quantiles, so they
are exact costs g = zeta*h + d; its mean is a float sum within a few ulps.
"""
from __future__ import annotations

import weakref

import numpy as np

from .cnf import CnfFormula, CostParams, _cost_base, _require_default_params, d_max
from .qsim import AngleVector, bits_from_ranks, prepare_state
from .shaping import CostHistogram, QuantileSet, level_quantiles

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


def _unsat_table(f: CnfFormula, weights: list[int]) -> np.ndarray:
    """Per rank, the summed weight of the clauses the assignment leaves unsatisfied.

    Variables 1.._LOW_BITS are the low rank bits and form one contiguous last
    axis, on which a clause is a pattern vector: its weight where all its low
    literals fail, else 0. Above them, axis ``n - v`` holds variable ``v`` as
    in a C-order ``(2,)*n`` view, so each high literal fixes one index and the
    pattern is added to that slice. Clauses without a high literal add their
    patterns to one shared vector, added to the whole table at the end.
    """
    low = min(f.n, _LOW_BITS)
    dtype = np.min_scalar_type(sum(weights))
    table = np.zeros((2,) * (f.n - low) + (1 << low,), dtype=dtype)
    low_only = np.zeros(1 << low, dtype=dtype)
    bits = np.arange(1 << low)
    for clause, weight in zip(f.clauses, weights):
        failing = [slice(None)] * (f.n - low)
        fails = np.ones(1 << low, dtype=bool)
        high = False
        for lit in clause.literals:
            if lit.variable > low:
                failing[f.n - lit.variable] = int(lit.negated)
                high = True
            else:
                fails &= (bits >> (lit.variable - 1) & 1) == lit.negated
        pattern = fails * dtype.type(weight)
        if high:
            table[tuple(failing)] += pattern
        else:
            low_only += pattern
    table += low_only
    return table.reshape(-1)


class _TableSlot:
    """The tables of the last formula the oracle saw, each filled on first use.

    The formula is held through a weak reference whose callback empties the
    slot, so the tables are freed with the formula.
    """

    def __init__(self):
        self.formula: weakref.ref | None = None
        self.h: tuple[np.ndarray, np.ndarray] | None = None
        self.d: np.ndarray | None = None

    def hold(self, f: CnfFormula) -> _TableSlot:
        if self.formula is None or self.formula() is not f:
            self.h = self.d = None
            self.formula = weakref.ref(f, self._forget)
        return self

    def _forget(self, ref: weakref.ref) -> None:
        if ref is self.formula:
            self.formula = self.h = self.d = None


_SLOT = _TableSlot()


def _tables(f: CnfFormula, max_n: int) -> _TableSlot:
    """The cache slot holding ``f``, after the resource guard."""
    if f.n > max_n:
        raise GuardError(
            f"enumeration over n={f.n} variables needs 2**{f.n} evaluations; "
            f"the resource guard allows n <= {max_n}"
        )
    return _SLOT.hold(f)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _h_table(f: CnfFormula, max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """(h, counts): per rank the number of clauses the assignment leaves
    unsatisfied, and the int64 number of ranks at each h in 0..m."""
    slot = _tables(f, max_n)
    if slot.h is None:
        h = _unsat_table(f, [1] * f.m)
        slot.h = (_read_only(h), _read_only(_block_bincount(h, f.m + 1)))
    return slot.h


def _d_table(f: CnfFormula, max_n: int) -> np.ndarray:
    """Per rank the divergence d: the summed i**2 of its unsatisfied clauses i."""
    slot = _tables(f, max_n)
    if slot.d is None:
        slot.d = _read_only(_unsat_table(f, [c.index ** 2 for c in f.clauses]))
    return slot.d


def _state_probabilities(f: CnfFormula, angles: AngleVector) -> np.ndarray:
    """|<x|state>|**2 of every assignment x, in rank order.

    Qubit j is multiplied in at step j, the same order as a per-rank product
    over j, so each entry is bit-identical to that product.
    """
    p1 = prepare_state(f.n, angles).p1
    probs = np.ones(1 << f.n)  # step j sets ranks 2**j..2**(j+1)-1 to ranks 0..2**j-1 times q1
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
    h, counts = _h_table(f, max_n)
    return _h_distribution(counts, counts / h.size)


def list_solutions(f: CnfFormula, max_n: int = GUARD_MAX_N) -> list[list[int]]:
    """All satisfying assignments, in ascending rank order."""
    ranks = np.flatnonzero(_h_table(f, max_n)[0] == 0)
    return bits_from_ranks(ranks, f.n).tolist()


def exact_h_distribution(
    f: CnfFormula, angles: AngleVector, max_n: int = GUARD_MAX_N
) -> CostHistogram:
    """Infinite-shot h-distribution of the prepared state.

    Accumulates |<x|state>|**2 into bucket h(x) for every assignment x.
    """
    h, counts = _h_table(f, max_n)
    return _h_distribution(counts, _block_bincount(h, counts.size, _state_probabilities(f, angles)))


def exact_g_distribution(
    f: CnfFormula, angles: AngleVector, max_n: int = GUARD_MAX_N
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cost distribution of the prepared state: (values, mass), the
    ascending distinct keys zeta*h + d of the h and d tables as exact float64
    g-values, and the quantum probability of each, summed in rank order."""
    base = _cost_base(f.m)
    h, d = _h_table(f, max_n)[0], _d_table(f, max_n)
    key = h.astype(np.min_scalar_type(base * f.m + d_max(f.m)))
    key *= base
    key += d
    values, inverse = np.unique(key, return_inverse=True)
    del key
    mass = _block_bincount(inverse, values.size, _state_probabilities(f, angles))
    return values.astype(np.float64), mass


def _exact_cost_terms(f: CnfFormula, angles: AngleVector, levels: QuantileSet, max_n: int):
    """(mean, quantiles): the mean cost g of the state and its exact
    nearest-rank g at each level, from the h and d tables."""
    base, (h, counts), d = _cost_base(f.m), _h_table(f, max_n), _d_table(f, max_n)
    probs = _state_probabilities(f, angles)
    mass = _block_bincount(h, counts.size, probs)
    dist = _h_distribution(counts, mass)
    total = float(dist.probabilities.sum())
    blocks = [slice(start, start + _BLOCK) for start in range(0, d.size, _BLOCK)]
    d_sum = sum(d[b].astype(np.float64) @ probs[b] for b in blocks)
    mean = float(base * (dist.values @ dist.probabilities) + d_sum) / total

    def ranks_at(hit: np.ndarray):
        low, high = np.flatnonzero(hit[0] >= 0)[[0, -1]].tolist()
        ranks = np.flatnonzero(h - low <= high - low)  # unsigned h wraps below low
        label = hit[0].take(h[ranks])
        keep = np.flatnonzero(label >= 0)  # not at an unchosen level between low and high
        ranks = ranks[keep]
        return label[keep], d[ranks], probs[ranks]

    return mean, level_quantiles(mass[None], base, levels, ranks_at)[0].astype(float).tolist()


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
