"""Exact simulation of the rank-phase circuit as an n-qubit product state.

The phase layer multiplies the |1> amplitude of qubit j by exp(-i*gamma*2**j)
and the mixer applies exp(-i*beta*X) per qubit. Neither couples qubits, so
the full 2**n state is always the tensor product of n single-qubit states;
this keeps preparation and sampling exact and fast at any qubit count.

Each qubit is a real Bloch vector (x, y, z), starting at (1, 0, 0) for |+>.
Layer k turns (x, y) by -theta_kj with theta_kj = gamma_k*2**j, then turns
(y, z) by 2*beta_k; the probability of reading 1 is p1 = (1 - z)/2. At depth
1 this is the closed form p1_j = (1 + sin(2*beta)*sin(gamma*2**j))/2.

Numerical contract: the rotations run in float64, with each cos/sin pair
taken from one complex exp. p1 agrees with the complex amplitude product
(``tests/dense_reference.product_state_loop``) within 2e-15 for n <= 1000,
and is clipped to [0, 1], which rounding would otherwise leave by about
1e-16. Every operation is elementwise, so a batch row equals its one-row
preparation bit for bit.

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
    """Product state: p1[j] is the probability that qubit j reads 1."""

    p1: np.ndarray  # (n,) float64 in [0, 1]

    @property
    def n(self) -> int:
        return self.p1.shape[0]


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
    """Run the depth-p circuit on |+>^n and return the exact product state."""
    return QuantumState(p1=p_one_rows(n, np.array([angles.betas]), np.array([angles.gammas]))[0])


def p_one_rows(n: int, betas: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """(P, n) per-qubit probabilities of measuring 1 at P angle rows.

    ``betas`` and ``gammas`` are (P, depth) arrays, row i holding one angle
    vector's layers. See the module notes for the rotations. Raises ValueError
    naming the first layer and qubit whose theta = gamma*2**j is not finite:
    2.0**j overflows from j = 1024, so every gamma (0 too, as 0*inf is NaN)
    fails beyond 1024 qubits, and a larger |gamma| fails sooner.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if betas.shape != gammas.shape:
        raise ValueError(f"betas {betas.shape} and gammas {gammas.shape} differ in shape")
    with np.errstate(over="ignore", invalid="ignore"):
        theta = gammas[:, :, None] * 2.0 ** np.arange(n)
    bad = ~np.isfinite(theta).all(axis=0)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise ValueError(
            f"gamma*2**j of layer {k} is not finite from qubit {j} on: "
            f"float64 cannot hold the phases of {n} qubits"
        )
    phase = np.exp(-1j * theta)  # cos - i*sin of theta
    mixer = np.exp(2j * betas)[:, :, None]  # cos + i*sin of 2*beta
    x, y, z = np.ones((len(betas), n)), np.zeros((len(betas), n)), np.zeros((len(betas), n))
    for k in range(betas.shape[1]):
        c, s = phase[:, k].real, phase[:, k].imag
        x, y = c * x - s * y, s * x + c * y
        c, s = mixer[:, k].real, mixer[:, k].imag
        y, z = c * y - s * z, s * y + c * z
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)


def sample(state: QuantumState, s: int, rng: np.random.Generator) -> ShotSet:
    """Draw s computational-basis shots.

    Because the state is a product state, measuring qubit j independently
    with probability p1[j] of reading 1 is distributionally identical to
    sampling the full 2**n vector. Deterministic for a given rng state; see fill_shots.
    """
    if s < 1:
        raise ValueError(f"shot count must be >= 1, got {s}")
    bits = np.empty((s, state.n), dtype=np.uint8)
    fill_shots(bits, state.p1, rng)
    return ShotSet(bits=bits)


def fill_shots(out: np.ndarray, p1: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the C-contiguous (s, n) uint8 ``out`` with shots that read 1 in column j w.p. p1[j].

    ``p1`` is one (n,) bias row, or a (groups, n) array whose row k biases the consecutive shot
    rows k*s/groups to (k+1)*s/groups - 1. Cell c (row-major) reads 1 when the little-endian
    16-bit word c of ``random_raw`` is below t_j = min(floor(65536*p1[j]), 65535) of its group.
    Cells whose word equals t_j are settled after the last block, in flat order, by one
    ``rng.random(k) < 65536*p1[j] - t_j`` draw, so P(1) is ceil(p*2**69)/2**69: exactly p for
    p >= 2**-16, and 1 for p >= 1. Blocks of about SAMPLE_BLOCK_CELLS hold a multiple of 4 rows
    (whole uint64 words), so the bits and the stream equal those of one (s, n) draw. ``p1``
    must be >= 0, and a NaN or negative entry raises ValueError; ``prepare_state`` and
    ``p_one_rows`` clip to [0, 1] so that it is.
    """
    if not out.flags.c_contiguous:
        raise ValueError("shot output must be a C-contiguous (s, n) array")
    scaled = 65536.0 * np.atleast_2d(np.asarray(p1, dtype=np.float64))
    if not (scaled >= 0).all():  # a NaN or negative bias would cast to an arbitrary threshold
        raise ValueError("shot probabilities must be non-negative numbers, got NaN or < 0")
    t = np.minimum(scaled, 65535.0).astype(np.uint16)  # p1 >= 0, so the cast floors
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
