"""CNF instances and assignment scoring.

Conventions used throughout the package:

- DIMACS variables are 1-based; bit ``j`` (0-based) of an assignment holds
  the truth value of variable ``j + 1``.
- Clauses keep their 1-based file position ``index``; the divergence score
  weights an unsatisfied clause ``i`` by ``i**2``.
- An assignment may be any sequence of 0/1 values (list, tuple or numpy
  array) of length ``n``.
- The cost is g = zeta*h + d with the fixed weight zeta = d_max(m) + 1, so g
  is the exact integer key h*(d_max+1) + d and orders assignments by h, then
  by d. float64 holds every key exactly up to MAX_EXACT_CLAUSES clauses, and
  every cost path refuses larger formulas.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Literal",
    "Clause",
    "CnfFormula",
    "CostParams",
    "DimacsError",
    "parse_dimacs",
    "parse_dimacs_file",
    "parse_json_instance",
    "parse_instance",
    "load_instance_file",
    "h_count",
    "default_params",
    "d_max",
    "MAX_EXACT_CLAUSES",
    "ClauseArrays",
]


class DimacsError(ValueError):
    """Malformed instance input. The message names the offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Literal:
    """A variable or its negation; ``variable`` is the 1-based DIMACS index."""

    variable: int
    negated: bool = False

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError(f"variable index must be >= 1, got {self.variable}")

    @property
    def signed(self) -> int:
        return -self.variable if self.negated else self.variable

    @classmethod
    def from_signed(cls, lit: int) -> "Literal":
        if lit == 0:
            raise ValueError("0 is a clause terminator, not a literal")
        return cls(abs(lit), lit < 0)


@dataclass(frozen=True)
class Clause:
    """Disjunction of literals at 1-based file position ``index``."""

    index: int
    literals: tuple[Literal, ...]

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"clause index must be >= 1, got {self.index}")
        if not self.literals:
            raise ValueError(f"clause {self.index} is empty")
        seen = set()
        for lit in self.literals:
            if lit.variable in seen:
                raise ValueError(
                    f"clause {self.index} mentions variable {lit.variable} twice"
                )
            seen.add(lit.variable)


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF instance: ``n`` variables and clauses in file order."""

    n: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"variable count must be >= 0, got {self.n}")
        for pos, clause in enumerate(self.clauses, start=1):
            if clause.index != pos:
                raise ValueError(
                    f"clause at position {pos} carries index {clause.index}; "
                    "indices must be exactly 1..m in order"
                )
            for lit in clause.literals:
                if lit.variable > self.n:
                    raise ValueError(
                        f"clause {pos} uses variable {lit.variable} > n={self.n}"
                    )

    @property
    def m(self) -> int:
        return len(self.clauses)

    @cached_property
    def arrays(self) -> "ClauseArrays":
        """The batch scorer of this formula, compiled on first use."""
        return ClauseArrays(self)

    @classmethod
    def from_signed(cls, n: int, clauses: Iterable[Iterable[int]]) -> "CnfFormula":
        """Build a formula from signed-integer clause lists."""
        built = tuple(
            Clause(index=i, literals=tuple(Literal.from_signed(l) for l in cl))
            for i, cl in enumerate(clauses, start=1)
        )
        return cls(n=n, clauses=built)


@dataclass(frozen=True)
class CostParams:
    """Weights of the hierarchical cost ``zeta*h + vartheta*d``.

    The weights are fixed: every path accepts only ``default_params(f)``.
    """

    zeta: float
    vartheta: float


def d_max(m: int) -> int:
    """Largest possible divergence for an m-clause formula: sum of i**2."""
    return m * (m + 1) * (2 * m + 1) // 6


# Largest m whose top cost g = zeta*m + d_max(m) under default_params is at
# most 2**53, so float64 holds every cost exactly and keeps the (h, d) order.
MAX_EXACT_CLAUSES = 12_820


def _cost_base(m: int) -> int:
    """zeta = d_max(m) + 1, which makes g = zeta*h + d the integer (h, d) key.

    Raises ValueError above MAX_EXACT_CLAUSES clauses, where float64 costs
    would silently break that ordering.
    """
    if m > MAX_EXACT_CLAUSES:
        raise ValueError(
            f"{m} clauses exceed the limit of {MAX_EXACT_CLAUSES}: above it the "
            "cost g = zeta*h + d no longer fits float64 exactly (2**53)"
        )
    return d_max(m) + 1


def default_params(f: CnfFormula) -> CostParams:
    """The fixed weights: minimal integers giving lexicographic (h, d) ordering."""
    return CostParams(zeta=float(_cost_base(f.m)), vartheta=1.0)


def _require_default_params(f: CnfFormula, params: CostParams) -> None:
    if params != default_params(f):
        raise ValueError(f"{params} differs from the fixed weights {default_params(f)}")


# ---------------------------------------------------------------------------
# Parsing

_SATLIB_EOF = "%"  # SATLIB benchmark files close with a '%' line and a stray 0


def parse_dimacs(text: str) -> CnfFormula:
    """Parse a DIMACS CNF document.

    Accepts 'c' comment lines, a single ``p cnf n m`` header, m clauses of
    whitespace-separated nonzero integers each terminated by 0 (clauses may
    span lines), and the SATLIB ``%`` end-of-file marker.
    """
    n = m = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith(_SATLIB_EOF):
            break
        if n is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(
                    f"expected header 'p cnf <vars> <clauses>', got {line!r}", lineno
                )
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"non-integer counts in header {line!r}", lineno)
            if n < 0 or m < 0:
                raise DimacsError(f"negative counts in header {line!r}", lineno)
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"unexpected token {tok!r} in clause", lineno)
            if lit == 0:
                if not current:
                    raise DimacsError("empty clause (0 with no literals)", lineno)
                clauses.append(tuple(current))
                current = []
                continue
            if len(clauses) >= m:
                raise DimacsError(
                    f"clause count mismatch: header promises {m} clauses but more follow",
                    lineno,
                )
            var = abs(lit)
            if var > n:
                raise DimacsError(f"variable {var} out of range 1..{n}", lineno)
            if any(abs(prev) == var for prev in current):
                raise DimacsError(
                    f"duplicate variable {var} in clause {len(clauses) + 1}", lineno
                )
            current.append(lit)
    if n is None:
        raise DimacsError("missing 'p cnf' header", max(lineno, 1))
    if current:
        raise DimacsError("unterminated final clause (missing 0)", lineno)
    if len(clauses) != m:
        raise DimacsError(
            f"clause count mismatch: header promises {m}, found {len(clauses)}", lineno
        )
    return CnfFormula.from_signed(n, clauses)


def parse_dimacs_file(path: str) -> CnfFormula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read())


def parse_json_instance(text: str | dict) -> CnfFormula:
    """Parse the extended JSON instance format.

    Schema: ``{"n": int, "clauses": [{"lits": [±int, ...]}, ...]}``. The cost
    counts unsatisfied clauses unweighted, so a clause weight ``"w"`` is
    rejected rather than silently ignored.
    """
    obj = json.loads(text) if isinstance(text, str) else text
    if not isinstance(obj, dict) or "n" not in obj or "clauses" not in obj:
        raise DimacsError("JSON instance must carry 'n' and 'clauses'")
    try:
        n = obj["n"]
        raw = list(obj["clauses"])
        lits = [tuple(cl["lits"]) for cl in raw]
    except (TypeError, KeyError, ValueError) as exc:
        raise DimacsError(f"malformed JSON instance: {exc}")
    for value in (n, *(l for cl in lits for l in cl)):  # int() truncates 3.9, reads true as 1
        if type(value) is not int:
            raise DimacsError(f"malformed JSON instance: expected a JSON integer, got {value!r}")
    for pos, cl in enumerate(raw, start=1):
        if "w" in cl:
            raise DimacsError(f"clause {pos}: clause weights are not supported")
    try:
        return CnfFormula.from_signed(n, lits)
    except ValueError as exc:
        raise DimacsError(str(exc))


def parse_instance(path: str, text: str) -> CnfFormula:
    """Parse the text of the instance file ``path``: JSON for a .json path, else DIMACS CNF."""
    return parse_json_instance(text) if str(path).endswith(".json") else parse_dimacs(text)


def load_instance_file(path: str) -> CnfFormula:
    """Load a DIMACS CNF or JSON instance, dispatching on extension."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(path, fh.read())


# ---------------------------------------------------------------------------
# Scoring

def h_count(f: CnfFormula, a: Sequence[int]) -> int:
    """Number of unsatisfied clauses; every entry of ``a`` must be 0 or 1."""
    if len(a) != f.n:
        raise ValueError(f"assignment length {len(a)} != n={f.n}")
    if any(bit not in (0, 1) for bit in a):
        raise ValueError("assignment bits must be 0 or 1")
    # a clause is unsatisfied when every literal is false: its bit is 0 for v, 1 for -v
    return sum(all(a[lit.variable - 1] == lit.negated for lit in c.literals) for c in f.clauses)


# ---------------------------------------------------------------------------
# Batch scoring

SCORE_BLOCK_CELLS = 2**18  # clause x row cells per d block: unpacked, a 2 MB float64 temporary
H_BLOCK_CELLS = 8 * SCORE_BLOCK_CELLS  # h and h_d_sums blocks stay packed: 256 KB of unsat bytes
H_BLOCK_MIN_ROWS = 1024  # 128-byte gathered planes; 488-row blocks made h 1.5x slower at m=4260
H_CHUNK = 255  # clauses per uint8 sum in h, so no row's sum can overflow


def _block_rows(cells: int, m: int) -> int:
    """Rows per scoring block of about ``cells`` clause x row cells and at least 8 rows: a
    multiple of 8, so every block but the last packs into whole bytes."""
    return max(8, cells // max(m, 1) // 8 * 8)


class ClauseArrays:
    """Literal planes for scoring many assignments at once, eight rows per byte.

    ``bits`` arguments are (s, n) arrays of 0/1, and any other entry raises
    ValueError; all outputs are per-row. A block of rows is packed along the
    rows, bit ``r % 8`` of byte ``r // 8`` holding row ``r``, into ``2n``
    planes: plane ``v`` is set where variable ``v`` (0-based) is 0, plane
    ``n + v`` where it is 1. ``_lits[j, i] = var + n*negated`` is the plane
    on which literal slot ``j`` of clause ``i`` fails, so a clause is
    unsatisfied on the AND of its gathered planes; a clause shorter than
    ``width`` repeats its first literal in the spare slots. ``h`` and ``h_d_sums``
    score packed blocks of ``rows`` rows (the report samples draw shots in such
    blocks), about H_BLOCK_CELLS clause x row cells and at least H_BLOCK_MIN_ROWS;
    ``d`` unpacks blocks of about SCORE_BLOCK_CELLS. Every block is a multiple of 8
    rows and one ``unsat_matrix`` call, and one block is alive at a time, so peaks do
    not grow with the number of rows: tracemalloc reads 1.6 MB for ``h``, 1.5 MB for
    ``h_d_sums`` and 2.4 MB for ``d`` at n=100, m=426, s=20,000. Every cost
    g = zeta*h + d is built from h and d.
    """

    def __init__(self, f: CnfFormula):
        self.n, self.m = f.n, f.m
        width = max((len(c.literals) for c in f.clauses), default=1)
        slots = [c.literals + c.literals[:1] * (width - len(c.literals)) for c in f.clauses]
        signed = np.array(
            [[lit.signed for lit in column] for column in zip(*slots)], dtype=np.int64
        ).reshape(width, self.m)
        self._lits = np.abs(signed) - 1 + self.n * (signed < 0)
        self._squares = np.arange(1, self.m + 1, dtype=np.int64) ** 2  # clause i weighs i**2
        self._weights = self._squares.astype(np.float64)  # d's row, for a float64 product
        self.rows = max(H_BLOCK_MIN_ROWS, _block_rows(H_BLOCK_CELLS, self.m))  # per h block

    def _checked(self, bits: np.ndarray) -> np.ndarray:
        """``bits`` as an (s, n) bool array; uint8 bits are checked and viewed without a copy."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n:
            raise ValueError(f"expected an (s, {self.n}) matrix of bits, got shape {bits.shape}")
        if bits.dtype == np.uint8:
            binary, flags = bits.max(initial=0) <= 1, bits.view(np.bool_)
        else:
            flags = bits.astype(np.bool_, copy=False)
            binary = flags is bits or np.array_equal(flags, bits)
        if not binary:
            raise ValueError("assignment bits must be 0 or 1")
        return flags

    def unsat_matrix(self, bits: np.ndarray) -> np.ndarray:
        """(m, ceil(s/8)) uint8: bit r % 8 of byte r // 8 in row i is set when clause i is
        unsatisfied by row r (little bit order, as ``np.unpackbits(..., bitorder="little")``
        reads it); the pad bits past row s - 1 are 0."""
        flags = np.ascontiguousarray(self._checked(bits)).view(np.uint8)
        s, n = flags.shape
        if s == 0:
            return np.zeros((self.m, 0), dtype=np.uint8)
        if s % 8:
            flags = np.concatenate([flags, np.zeros((-s % 8, n), dtype=np.uint8)])
        # words of whole rows: shifting row 8b + k by k and ORing the 8 rows leaves, in each
        # byte lane, the packed byte of its column
        lane = math.gcd(n, 8)
        words = flags.view(f"<u{lane}").reshape(len(flags) // 8, 8, n // lane)
        packed = words[:, 0].copy()
        for k in range(1, 8):
            packed |= words[:, k] << k
        size = len(packed)
        planes = np.empty((2 * n, size), dtype=np.uint8)
        planes[n:] = packed.view(np.uint8).T
        np.invert(planes[n:], out=planes[:n])
        planes[:n, -1] &= 0xFF >> (-s % 8)  # keep the pad bits 0
        # one size-byte void item per plane, so each gathered plane is a single copy
        items = planes.view(np.dtype((np.void, size))).reshape(-1)
        unsat = items[self._lits[0]].view(np.uint8).reshape(self.m, size)
        for lits in self._lits[1:]:
            unsat &= items[lits].view(np.uint8).reshape(self.m, size)
        return unsat

    def _blocks(self, bits: np.ndarray, rows: int):
        """(start, stop, packed unsat block of rows start..stop - 1) over blocks of ``rows``
        rows. Callers drop each block before the next."""
        flags = self._checked(bits)
        for start in range(0, len(flags), rows):
            block = flags[start:start + rows]
            yield start, start + len(block), self.unsat_matrix(block)

    def _h_into(self, u: np.ndarray, out: np.ndarray) -> None:
        """Each row's count of unsatisfied clauses in the packed block ``u``, written to ``out``:
        chunks of H_CHUNK clauses unpacked and summed in uint8, then widened."""
        out[...] = 0
        for c in range(0, self.m, H_CHUNK):  # no name holds a chunk while the next is unpacked
            out += np.add.reduce(
                np.unpackbits(u[c:c + H_CHUNK], axis=1, count=len(out), bitorder="little"),
                0, np.uint8)

    def h(self, bits: np.ndarray) -> np.ndarray:
        """Per-row count of unsatisfied clauses."""
        out = np.empty(len(bits), np.int64)
        for start, stop, u in self._blocks(bits, self.rows):
            self._h_into(u, out[start:stop])
            del u  # else it stays alive while the next block is built
        return out

    def h_d_sums(self, bits: np.ndarray, s: int) -> tuple[np.ndarray, list[int]]:
        """Per-row h, in the narrowest type holding m, and the exact d-sum, sum(i**2 * c_i)
        over each group of s consecutive rows where clause i fails c_i times, as Python ints,
        from one pass over the h blocks. A group may span blocks, and its edges may cut a
        byte; each block adds its share of every group it holds, at most d_max(m) times
        its rows (7.2e14 at MAX_EXACT_CLAUSES), so the int64 shares are exact."""
        if s < 1 or len(bits) % s:
            raise ValueError(f"{len(bits)} rows do not split into groups of {s}")
        h = np.empty(len(bits), np.min_scalar_type(self.m))
        d_sums = [0] * (len(bits) // s)
        for start, stop, u in self._blocks(bits, self.rows):
            self._h_into(u, h[start:stop])
            first = start // s
            edges = np.maximum(np.arange(first * s, stop, s) - start, 0)  # each part's first row
            at = edges // 8
            # whole bytes from each part's first byte on, then the bits of a cut byte below
            # its edge move to the part before; the unsigned sums may wrap, which is exact
            # because each result is a count of at most the block's rows
            part = np.add.reduceat(
                np.bitwise_count(u), at, axis=1, dtype=np.min_scalar_type(stop - start))
            part[:, np.flatnonzero(at[1:] == at[:-1])] = 0  # reduceat's empty range gives a byte
            cut = np.bitwise_count(u[:, at] & ((1 << edges % 8) - 1).astype(np.uint8))
            part -= cut
            part[:, :-1] += cut[:, 1:]
            for k, share in enumerate((self._squares @ part).tolist(), start=first):
                d_sums[k] += share
            del u
        return h, d_sums

    def d(self, bits: np.ndarray) -> np.ndarray:
        """Per-row divergence, the sum of i**2 over the unsatisfied clauses i, in float64:
        every partial sum is an integer of at most d_max(m) < 2**53, so it is exact."""
        out = np.empty(len(bits), np.float64)
        for start, stop, u in self._blocks(bits, _block_rows(SCORE_BLOCK_CELLS, self.m)):
            out[start:stop] = self._weights @ np.unpackbits(
                u, axis=1, count=stop - start, bitorder="little")
            del u
        return out
