"""Exact simulation of the rank-phase circuit as an n-qubit product state.

The phase layer multiplies the |1> amplitude of qubit j by exp(-i*gamma*2**j)
and the mixer applies exp(-i*beta*X) per qubit. Neither couples qubits, so
the full 2**n state is always the tensor product of n amplitude pairs; this
keeps preparation and sampling exact and fast at any qubit count.

Bit order: qubit j carries rank weight 2**j and DIMACS variable j+1, so a
measured bitstring is simultaneously a rank's binary expansion and a truth
assignment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AngleVector",
    "QuantumState",
    "ShotSet",
    "bits_from_ranks",
    "prepare_state",
    "p_one_rows",
    "sample",
    "fill_shots",
]

SAMPLE_BLOCK_CELLS = 2**18  # shot-bits per sampling block: a 512 KB temporary of 16-bit words

BETA_PERIOD = math.pi       # beta is periodic modulo pi up to measurement stats
GAMMA_PERIOD = 2 * math.pi


@dataclass(frozen=True)
class AngleVector:
    """Depth-p circuit parameters: one (beta, gamma) pair per layer."""

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.betas) != len(self.gammas):
            raise ValueError(
                f"betas and gammas must have equal length, got "
                f"{len(self.betas)} and {len(self.gammas)}"
            )
        if not self.betas:
            raise ValueError("depth must be >= 1")

    @property
    def depth(self) -> int:
        return len(self.betas)

    @classmethod
    def zeros(cls, depth: int) -> "AngleVector":
        return cls(betas=(0.0,) * depth, gammas=(0.0,) * depth)

    def to_json_obj(self) -> list[dict]:
        return [{"beta": b, "gamma": g} for b, g in zip(self.betas, self.gammas)]

    @classmethod
    def from_json_obj(cls, obj: Sequence[dict]) -> "AngleVector":
        """Parse ``[{"beta": b, "gamma": g}, ...]``; ValueError names a bad layer."""
        if not isinstance(obj, list):
            raise ValueError(f"angles must be a JSON list of layers, got {type(obj).__name__}")
        for k, layer in enumerate(obj):
            if not isinstance(layer, dict) or not all(
                type(layer.get(key)) in (int, float) and math.isfinite(layer[key])
                for key in ("beta", "gamma")
            ):
                raise ValueError(f"angle layer {k} is not an object with finite beta and gamma")
        return cls(
            betas=tuple(float(layer["beta"]) for layer in obj),
            gammas=tuple(float(layer["gamma"]) for layer in obj),
        )


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Product state: row j holds the (|0>, |1>) amplitude pair of qubit j."""

    amps: np.ndarray  # (n, 2) complex128

    @property
    def n(self) -> int:
        return self.amps.shape[0]

    def p_one(self) -> np.ndarray:
        """Per-qubit probability of measuring 1."""
        return np.abs(self.amps[:, 1]) ** 2


@dataclass(frozen=True, eq=False)
class ShotSet:
    """Measured bitstrings as an (s, n) 0/1 matrix, one row per shot."""

    bits: np.ndarray

    def __post_init__(self):
        if self.bits.ndim != 2:
            raise ValueError("shots must form an (s, n) matrix")

    @property
    def count(self) -> int:
        return self.bits.shape[0]

    @property
    def n(self) -> int:
        return self.bits.shape[1]


def bits_from_ranks(ranks: np.ndarray, n: int) -> np.ndarray:
    """Decode ranks into an (s, n) bit matrix: bit j of row i is bit j of ranks[i]."""
    ranks = np.asarray(ranks, dtype=np.int64)
    return ((ranks[:, None] >> np.arange(n, dtype=np.int64)) & 1).astype(np.uint8)


def prepare_state(n: int, angles: AngleVector) -> QuantumState:
    """Run the depth-p circuit on |+>^n and return the exact product state.

    Per layer k and qubit j: the phase gate maps (a0, a1) to
    (a0, exp(-i*gamma_k*2**j)*a1), then the mixer applies
    [[cos b, -i sin b], [-i sin b, cos b]] with b = beta_k.
    """
    amps = _amplitudes(n, np.array([angles.betas]), np.array([angles.gammas]))
    return QuantumState(amps=amps[0])


def p_one_rows(n: int, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """(P, n) per-qubit probabilities of measuring 1 at P angle rows.

    ``betas`` and ``gammas`` are (P, depth) arrays, row i holding one angle
    vector's layers. Row i equals ``prepare_state(n, AngleVector(betas[i],
    gammas[i])).p_one()`` bit for bit.
    """
    return np.abs(_amplitudes(n, betas, gammas)[:, :, 1]) ** 2


def _amplitudes(n: int, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """(P, n, 2) amplitude pairs of the circuit at each of P (betas, gammas) rows."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if betas.shape != gammas.shape:
        raise ValueError(f"betas {betas.shape} and gammas {gammas.shape} differ in shape")
    amps = np.full((len(betas), n, 2), 1.0 / math.sqrt(2.0), dtype=np.complex128)
    weights = 2.0 ** np.arange(n)
    for k in range(betas.shape[1]):
        # per-row scalars are the Python values prepare_state on one vector uses
        phase = np.exp(np.array([[-1j * g] for g in gammas[:, k].tolist()]) * weights)
        # numpy rounds a complex product differently by loop length: one row per call
        for row, row_phase in zip(amps, phase):
            row[:, 1] *= row_phase
        # c and +-i*s have a zero part, so these products round alike in any loop
        c = np.array([[complex(math.cos(b))] for b in betas[:, k].tolist()])
        s = np.array([[math.sin(b)] for b in betas[:, k].tolist()])
        a0 = c * amps[:, :, 0] - 1j * s * amps[:, :, 1]
        a1 = -1j * s * amps[:, :, 0] + c * amps[:, :, 1]
        amps = np.stack([a0, a1], axis=2)
    return amps


def sample(state: QuantumState, s: int, rng: np.random.Generator) -> ShotSet:
    """Draw s computational-basis shots.

    Because the state is a product state, measuring qubit j independently
    with probability |a_j1|**2 of reading 1 is distributionally identical to
    sampling the full 2**n vector. Deterministic for a given rng state; see fill_shots.
    """
    if s < 1:
        raise ValueError(f"shot count must be >= 1, got {s}")
    bits = np.empty((s, state.n), dtype=np.uint8)
    fill_shots(bits, state.p_one(), rng)
    return ShotSet(bits=bits)


def fill_shots(out: np.ndarray, p1: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the C-contiguous (s, n) uint8 ``out`` with shots that read 1 in column j w.p. p1[j].

    ``p1`` is one (n,) bias row, or a (groups, n) array whose row k biases the consecutive shot
    rows k*s/groups to (k+1)*s/groups - 1. Cell c (row-major) reads 1 when the little-endian
    16-bit word c of ``random_raw`` is below t_j = min(floor(65536*p1[j]), 65535) of its group.
    Cells whose word equals t_j are settled after the last block, in flat order, by one
    ``rng.random(k) < 65536*p1[j] - t_j`` draw, so P(1) is ceil(p*2**69)/2**69: exactly p for
    p >= 2**-16, and 1 for p >= 1. Blocks of about SAMPLE_BLOCK_CELLS hold a multiple of 4 rows
    (whole uint64 words), so the bits and the stream equal those of one (s, n) draw.
    """
    if not out.flags.c_contiguous:
        raise ValueError("shot output must be a C-contiguous (s, n) array")
    scaled = 65536.0 * np.atleast_2d(np.asarray(p1, dtype=np.float64))
    t = np.minimum(scaled, 65535.0).astype(np.uint16)  # p >= 0, so the cast floors
    groups, n = t.shape
    s = len(out) // groups
    if out.shape != (groups * s, n):
        raise ValueError(f"shot output {out.shape} does not split into {groups} groups of n={n}")
    rows, ties = max(4, SAMPLE_BLOCK_CELLS // n // 4 * 4), []
    for start in range(0, len(out), rows):
        block = out[start:start + rows]
        raw = rng.bit_generator.random_raw(-(-block.size // 4)).astype("<u8", copy=False)
        words = raw.view("<u2")[:block.size].reshape(block.shape)
        limits = t[0] if groups == 1 else t[np.arange(start, start + len(block)) // s]
        np.less(words, limits, out=block)
        ties.append(np.flatnonzero(words == limits) + start * n)
    tie = np.concatenate(ties)
    if tie.size:
        cell = (tie // n // s, tie % n)
        out.reshape(-1)[tie] = rng.random(tie.size) < scaled[cell] - t[cell]
