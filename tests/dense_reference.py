"""Independent scalar and dense references for the scorer, simulator and oracle.

``eval_clause``, ``divergence``, ``g_cost``, ``rank_of`` and ``probability``
each take one clause or assignment at a time: the scalar references the batch
scorer, ``bits_from_ranks`` and the state tables are checked against.
``quantile`` is the nearest-rank quantile of one histogram, the reference for
the shaped objectives.

``product_state_loop`` is the simulator's earlier complex path: one (|0>, |1>)
amplitude pair per qubit, phased and mixed layer by layer in complex128. The
Bloch-vector simulator is checked against its squared |1> amplitudes.

``dense_state`` is deliberately coded against the integer rank: builds the
full vector, applies the diagonal phase exp(-i*gamma*rank) on the flat index,
and applies the mixer as a tensored 2x2 per axis. Shares no code with the
product-state simulator it cross-checks.

``slice_unsat_table`` is the oracle's earlier table builder: each clause is
added through one slice of a ``(2,)*n`` view, so the inner loops are as short
as the clause's lowest variable makes them.

``block_shots`` is the sampler's contract for one block: one ``random_raw``
draw of the block's 16-bit words, qubit-major, compared with each cell's
threshold (of its group's bias row), then one ``rng.random`` draw that refines
the tied cells in that order. ``bit_planes`` packs an (s, n) bit matrix into
the scorer's (n, ceil(s/8)) planes with integer shifts, without ``np.packbits``.

``float_g_distribution`` is the oracle's earlier exact g-distribution: a
float64 g table per rank from ``slice_unsat_table`` and one ``np.unique`` over
it, with no table cache.

``to_dimacs`` writes a formula back as DIMACS text, for tests that need an
instance file; re-parsing it yields an equal formula.
"""
import math

import numpy as np

from ranksat.cnf import default_params, h_count
from ranksat.oracle import _block_bincount, _state_probabilities
from ranksat.shaping import nearest_rank_quantile

RANK_BIT_LIMIT = 62  # rank_of returns an exact Python int; numpy paths use int64


def eval_clause(clause, a) -> bool:
    """True iff at least one literal of the clause is satisfied by ``a``."""
    for lit in clause.literals:
        bit = a[lit.variable - 1]
        if (bit == 1) != lit.negated:
            return True
    return False


def quantile(hist, p: float) -> float:
    """Nearest-rank quantile of a ``CostHistogram`` at level p."""
    return nearest_rank_quantile(hist.values, hist.cumfreq, p)


def divergence(f, a) -> int:
    """Sum of i**2 over unsatisfied clause positions i (1-based)."""
    if len(a) != f.n:
        raise ValueError(f"assignment length {len(a)} != n={f.n}")
    return sum(i * i for i, c in enumerate(f.clauses, start=1) if not eval_clause(c, a))


def g_cost(f, a) -> float:
    """Hierarchical cost ``zeta*h + d`` of one assignment; 0 iff ``a`` satisfies ``f``."""
    return default_params(f).zeta * h_count(f, a) + divergence(f, a)


def rank_of(a) -> int:
    """Integer encoded by the bitstring: sum of bits[j] * 2**j."""
    if len(a) > RANK_BIT_LIMIT:
        raise ValueError(f"rank_of supports up to {RANK_BIT_LIMIT} bits, got {len(a)}")
    rank = 0
    for j, bit in enumerate(a):
        if bit not in (0, 1):
            raise ValueError(f"bit {j} is {bit!r}, expected 0 or 1")
        rank += int(bit) << j
    return rank


def probability(p1, a) -> float:
    """|<x|state>|**2 of the product state ``p1``, as the product of per-qubit probabilities."""
    if len(a) != len(p1):
        raise ValueError(f"assignment length {len(a)} != n={len(p1)}")
    return float(np.prod(np.where(np.asarray(a) == 1, p1, 1.0 - p1)))


def product_state_loop(n: int, angles) -> np.ndarray:
    """(n, 2) complex128 amplitude pairs of the circuit, qubit by qubit."""
    amps = np.full((n, 2), 1.0 / math.sqrt(2.0), dtype=np.complex128)
    weights = 2.0 ** np.arange(n)
    for beta, gamma in zip(angles.betas, angles.gammas):
        amps[:, 1] *= np.exp(-1j * gamma * weights)
        c, s = math.cos(beta), math.sin(beta)
        a0 = c * amps[:, 0] - 1j * s * amps[:, 1]
        a1 = -1j * s * amps[:, 0] + c * amps[:, 1]
        amps = np.stack([a0, a1], axis=1)
    return amps


def _mixer_matrix(beta: float) -> np.ndarray:
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _apply_mixer(state: np.ndarray, beta: float, n: int) -> np.ndarray:
    gate = _mixer_matrix(beta)
    psi = state.reshape([2] * n)
    for axis in range(n):
        psi = np.moveaxis(np.tensordot(gate, np.moveaxis(psi, axis, 0), axes=(1, 0)), 0, axis)
    return psi.reshape(-1)


def dense_state(n: int, betas, gammas) -> np.ndarray:
    """Full statevector indexed by rank: state[r] = <r|circuit|+^n>."""
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
    ranks = np.arange(1 << n)
    for beta, gamma in zip(betas, gammas):
        state = state * np.exp(-1j * gamma * ranks)
        state = _apply_mixer(state, beta, n)
    return state


def block_shots(p1, s, rng) -> np.ndarray:
    """(groups*s, n) uint8 bits of one block of shots for an (n,) or (groups, n) bias array, s
    shots per group: word j*count + r is qubit j of shot r, and it reads 1 below
    floor(65536*p) clamped to 65535; ties are refined by a uniform, p of the cell's group."""
    p = np.atleast_2d(p1)
    groups, n = p.shape
    count = groups * s
    cells = np.arange(count * n)
    words = rng.bit_generator.random_raw(-(-cells.size // 4)).astype("<u8").view("<u2")
    qubit, shot = np.divmod(cells, count)
    p = p[shot // s, qubit]
    t = np.minimum(np.floor(65536 * p), 65535)
    bits = (words[:cells.size] < t).astype(np.uint8)
    tie = np.flatnonzero(words[:cells.size] == t)
    bits[tie] = rng.random(tie.size) < 65536 * p[tie] - t[tie]
    return bits.reshape(n, count).T


def bit_planes(bits) -> np.ndarray:
    """(n, ceil(s/8)) uint8 planes of an (s, n) 0/1 matrix: bit r % 8 of byte r // 8 in row j
    is bits[r, j]; the pad bits are 0."""
    bits = np.asarray(bits, dtype=np.int64)
    s, n = bits.shape
    padded = np.zeros((-(-s // 8) * 8, n), np.int64)
    padded[:s] = bits
    weights = (1 << np.arange(8))[None, :, None]
    return (padded.reshape(-1, 8, n) * weights).sum(axis=1).T.astype(np.uint8)


def slice_unsat_table(f, weights) -> np.ndarray:
    """Per rank, the summed weight of the clauses the assignment leaves unsatisfied.

    In C order axis ``n - v`` of the ``(2,)*n`` view holds variable ``v``, so
    the slice fixing each literal of a clause to its failing value holds
    exactly the assignments that leave the clause unsatisfied.
    """
    table = np.zeros((2,) * f.n, dtype=np.min_scalar_type(sum(weights)))
    for clause, weight in zip(f.clauses, weights):
        failing = [slice(None)] * f.n
        for lit in clause.literals:
            failing[f.n - lit.variable] = int(lit.negated)
        table[tuple(failing)] += weight
    return table.reshape(-1)


def float_g_distribution(f, angles, params):
    """Ascending distinct g-values of a float64 g table and the mass of each."""
    g = params.zeta * slice_unsat_table(f, [1] * f.m)
    g += params.vartheta * slice_unsat_table(f, [i * i for i in range(1, f.m + 1)])
    values, inverse = np.unique(g, return_inverse=True)
    del g
    return values, _block_bincount(inverse, values.size, _state_probabilities(f, angles))


def to_dimacs(f) -> str:
    lines = [f"p cnf {f.n} {f.m}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit.signed) for lit in clause.literals) + " 0")
    return "\n".join(lines) + "\n"
