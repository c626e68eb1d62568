"""Independent references for the simulator and the oracle.

``dense_state`` is deliberately coded against the integer rank: builds the
full vector, applies the diagonal phase exp(-i*gamma*rank) on the flat index,
and applies the mixer as a tensored 2x2 per axis. Shares no code with the
product-state simulator it cross-checks.

``float_g_distribution`` is the oracle's earlier exact g-distribution: a
float64 g table per rank and one ``np.unique`` over it, with no table cache.
"""
import numpy as np

from ranksat.oracle import _block_bincount, _state_probabilities, _unsat_table


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


def float_g_distribution(f, angles, params):
    """Ascending distinct g-values of a float64 g table and the mass of each."""
    g = params.zeta * _unsat_table(f, [1] * f.m)
    g += params.vartheta * _unsat_table(f, [c.index ** 2 for c in f.clauses])
    values, inverse = np.unique(g, return_inverse=True)
    del g
    return values, _block_bincount(inverse, values.size, _state_probabilities(f, angles))
