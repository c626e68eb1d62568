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

Sampling: ``draw_planes`` is the one draw of shots. It draws a block of shots
as packed planes, one row per qubit holding that qubit's bits packed along the
shots, which is the form the scorer (``cnf.ClauseArrays.unsat_matrix``) reads.
A block takes its 16-bit words qubit-major and then the uniforms for its ties,
so a shot's bits depend on the block it is drawn in: the GA's fitness pass
draws one block per generation, the report samples are drawn a block at a time
by ``cnf.ClauseArrays.scores``, and ``sample`` draws one block of s shots and
unpacks it into an (s, n) uint8 matrix of 0/1, one row per shot. Each bit's law
does not depend on the block: it reads 1 with probability ceil(p*2**69)/2**69,
exactly p for p >= 2**-16. The words and the tie uniforms are drawn from
``rng`` in order, so any numpy bit generator serves.

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
    "bits_from_ranks",
    "prepare_state",
    "p_one_rows",
    "sample",
    "draw_planes",
]

# Shot-bits per random_raw draw: a 2 MB temporary of 16-bit words. At 2**18 the GA's n=200
# generation took five draws, and glibc's heap trimming then returned and re-faulted about
# 2 MB on every generation (80k minor faults per ga-n200 run, 10% slower).
SAMPLE_BLOCK_CELLS = 2**20

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
    # children copy their parents' genes, so the phases are taken once per distinct gamma
    distinct, inverse = np.unique(gammas, return_inverse=True)
    inverse = inverse.reshape(gammas.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = distinct[:, None] * 2.0 ** np.arange(n)
    finite = np.isfinite(theta)
    if not finite.all():
        k, j = np.argwhere(~finite[inverse].all(axis=0))[0]
        raise ValueError(
            f"gamma*2**j of layer {k} is not finite from qubit {j} on: "
            f"float64 cannot hold the phases of {n} qubits"
        )
    phase = np.exp(-1j * theta)[inverse]  # cos - i*sin of theta
    mixer = np.exp(2j * betas)[:, :, None]  # cos + i*sin of 2*beta
    x, y, z = np.ones((len(betas), n)), np.zeros((len(betas), n)), np.zeros((len(betas), n))
    for k in range(betas.shape[1]):
        c, s = phase[:, k].real, phase[:, k].imag
        x, y = c * x - s * y, s * x + c * y
        c, s = mixer[:, k].real, mixer[:, k].imag
        y, z = c * y - s * z, s * y + c * z
    return np.clip((1.0 - z) / 2.0, 0.0, 1.0)


def sample(state: QuantumState, s: int, rng: np.random.Generator) -> np.ndarray:
    """Draw s computational-basis shots as an (s, n) uint8 matrix of 0/1, one row per shot.

    Because the state is a product state, measuring qubit j independently
    with probability p1[j] of reading 1 is distributionally identical to
    sampling the full 2**n vector. The shots are one ``draw_planes`` block, unpacked, so
    they are deterministic for a given rng state.
    """
    return np.unpackbits(draw_planes(state.p1, s, rng).T, axis=0, count=s, bitorder="little")


def draw_planes(p1: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` shots as one block of packed planes: (n, ceil(count/8)) uint8, bit r % 8
    of byte r // 8 in row j set when qubit j reads 1 in shot r (little bit order); the pad
    bits are 0.

    ``p1`` is one (n,) bias row, or a (groups, n) array whose row k biases the consecutive
    shots k*count/groups to (k+1)*count/groups - 1. The block takes count*n little-endian
    16-bit words of ``rng.bit_generator.random_raw`` qubit-major, word j*count + r for qubit
    j of shot r, then one ``rng.random(k)`` for its k ties in that order. A cell reads 1 when
    its word is below t_j = min(floor(65536*p1[j]), 65535) of its group; a word equal to t_j
    (about 1 in 65,536) is a tie, settled by ``rng.random() < 65536*p1[j] - t_j``, so P(1) is
    ceil(p*2**69)/2**69: exactly p for p >= 2**-16, and 1 for p >= 1. The words are drawn
    about SAMPLE_BLOCK_CELLS at a time, for a multiple of 4 qubits, so that each draw but
    the last takes whole 64-bit words. ``p1`` must be >= 0, and a NaN or negative entry raises
    ValueError; ``prepare_state`` and ``p_one_rows`` clip to [0, 1] so that it is.
    """
    scaled = 65536.0 * np.atleast_2d(np.asarray(p1, dtype=np.float64))
    if not (scaled >= 0).all():  # a NaN or negative bias would cast to an arbitrary threshold
        raise ValueError("shot probabilities must be non-negative numbers, got NaN or < 0")
    t = np.minimum(scaled, 65535.0).astype(np.uint16)  # p1 >= 0, so the cast floors
    groups, n = t.shape
    if count < 1:
        raise ValueError(f"shot count must be >= 1, got {count}")
    s = count // groups
    if count != groups * s:
        raise ValueError(f"{count} shots do not split into {groups} groups")
    planes = np.empty((n, -(-count // 8)), np.uint8)
    step = max(4, SAMPLE_BLOCK_CELLS // count // 4 * 4)  # qubits per word draw
    ties = []
    for j in range(0, n, step):
        k = min(step, n - j)
        raw = rng.bit_generator.random_raw(-(-k * count // 4)).astype("<u8", copy=False)
        words = raw.view("<u2")[:k * count].reshape(k, groups, s)
        limits = t.T[j:j + k, :, None]
        planes[j:j + k] = np.packbits(
            (words < limits).reshape(k, count), axis=1, bitorder="little")
        ties.append(np.flatnonzero(words == limits) + j * count)
        del raw, words  # else they stay alive while the next draw is made
    qubit, shot = np.divmod(np.concatenate(ties), count)
    group = shot // s
    won = rng.random(shot.size) < scaled[group, qubit] - t[group, qubit]
    shot = shot[won]
    np.bitwise_or.at(planes, (qubit[won], shot >> 3), (1 << (shot & 7)).astype(np.uint8))
    return planes
