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

SCORE_BLOCK_CELLS = 2**17  # clause x row cells per d slice: unpacked, a 1 MB float64 temporary
H_BLOCK_CELLS = 2**21  # h blocks stay packed: 256 KB of unsat bytes
H_BLOCK_MIN_ROWS = 1024  # 128-byte gathered planes; 488-row blocks made h 1.5x slower at m=4260
H_CHUNK = 255  # clauses per uint8 sum in h, so no row's sum can overflow


def _block_rows(cells: int, m: int) -> int:
    """Rows per scoring block of about ``cells`` clause x row cells and at least 8 rows: a
    multiple of 8, so every block but the last packs into whole bytes."""
    return max(8, cells // max(m, 1) // 8 * 8)


class ClauseArrays:
    """Literal planes for scoring many assignments at once, eight rows per byte.

    The scorer reads shots as the sampler draws them (``qsim.draw_planes``): ``planes`` is an
    (n, ceil(rows/8)) uint8 array whose row ``v`` has bit ``r % 8`` of byte ``r // 8`` set
    when variable ``v`` (0-based) is 1 in row ``r``. ``unsat_matrix`` adds the complement
    planes, so plane ``v`` is set where variable ``v`` is 0 and plane ``n + v`` where it is
    1. ``_lits[j, i] = var + n*negated`` is the plane on which literal slot ``j`` of clause
    ``i`` fails, so a clause is unsatisfied on the AND of its gathered planes; a clause
    shorter than ``width`` repeats its first literal in the spare slots. ``h``, ``h_d_sums``
    and ``d`` read a packed unsat block ``u`` of ``unsat_matrix``.

    ``scores`` is the one loop over blocks of ``rows`` rows, about H_BLOCK_CELLS clause x row
    cells and at least H_BLOCK_MIN_ROWS, a size that depends only on m. It takes the planes
    of all rows, or a draw that it calls once per block; the report samples of
    ``ranksat.harness`` pass the draw, and as each ``draw_planes`` block settles its own ties,
    the shots of a report sample depend on ``rows``: changing it changes every stored seed's
    shots. Each reader keeps its temporaries from growing with the number of rows: at n=100,
    m=426, s=20,000 tracemalloc reads 1.5 MB for ``scores``, 1.2 MB for ``h_d_sums`` with one
    group of all rows (0.9 MB with a group per row) and 1.3 MB for ``d`` of every row. Every
    cost g = zeta*h + d is built from h and d of one block.
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
        self.rows = max(H_BLOCK_MIN_ROWS, _block_rows(H_BLOCK_CELLS, self.m))  # per scores block

    def planes_of(self, bits: np.ndarray) -> np.ndarray:
        """The planes of an (s, n) matrix of 0/1 bits, one row per shot (as ``qsim.sample``
        returns them); any other entry raises ValueError."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n:
            raise ValueError(f"expected an (s, {self.n}) matrix of bits, got shape {bits.shape}")
        if bits.dtype == np.uint8:
            binary = bits.max(initial=0) <= 1
        else:
            flags = bits.astype(np.bool_, copy=False)
            binary = flags is bits or np.array_equal(flags, bits)
            bits = flags
        if not binary:
            raise ValueError("assignment bits must be 0 or 1")
        return np.packbits(bits, axis=0, bitorder="little").T

    def unsat_matrix(self, planes: np.ndarray, rows: int) -> np.ndarray:
        """(m, ceil(rows/8)) uint8: bit r % 8 of byte r // 8 in row i is set when clause i is
        unsatisfied by row r of ``planes`` (little bit order, as ``np.unpackbits(...,
        bitorder="little")`` reads it); the pad bits past row rows - 1 are 0."""
        size = -(-rows // 8)
        both = np.empty((2 * self.n, size), dtype=np.uint8)
        both[self.n:] = planes[:, :size]
        np.invert(both[self.n:], out=both[:self.n])
        # one size-byte void item per plane, so each gathered plane is a single copy
        items = both.view(np.dtype((np.void, size))).reshape(-1)
        unsat = items[self._lits[0]].view(np.uint8).reshape(self.m, size)
        for lits in self._lits[1:]:
            unsat &= items[lits].view(np.uint8).reshape(self.m, size)
        unsat[:, size - 1:] &= 0xFF >> (-rows % 8)  # keep the pad bits 0
        return unsat

    def scores(self, planes, rows: int, zeta: float | None = None) -> np.ndarray:
        """Per-row h of ``rows`` rows, in the narrowest type holding m, or with ``zeta`` the
        cost g = zeta*h + d in float64, one block of ``self.rows`` rows at a time: h and d of a
        block both read its one ``unsat_matrix`` call. ``planes`` holds the planes of all the
        rows, or is a function ``count -> planes`` called for each block's ``count`` rows in
        order, so that no more than a block of rows is drawn at once."""
        out = np.empty(rows, np.min_scalar_type(self.m) if zeta is None else np.float64)
        for start in range(0, rows, self.rows):
            count = min(self.rows, rows - start)
            block = planes(count) if callable(planes) else planes[:, start // 8:]
            u = self.unsat_matrix(block, count)
            h = self.h(u, count)
            out[start:start + count] = h if zeta is None else zeta * h + self.d(
                u, np.arange(count))
            del block, u, h  # else they stay alive while the next block is built
        return out

    def h(self, u: np.ndarray, rows: int) -> np.ndarray:
        """Per-row count of unsatisfied clauses of the unsat block ``u`` of ``rows`` rows, in
        the narrowest type holding m: chunks of H_CHUNK clauses unpacked and summed in uint8,
        then widened. Its callers hand it at most ``self.rows`` rows."""
        out = np.zeros(rows, np.min_scalar_type(self.m))
        for c in range(0, self.m, H_CHUNK):  # no name holds a chunk while the next is unpacked
            out += np.add.reduce(
                np.unpackbits(u[c:c + H_CHUNK], axis=1, count=rows, bitorder="little"),
                0, np.uint8)
        return out

    def h_d_sums(self, u: np.ndarray, rows: int, s: int) -> tuple[np.ndarray, list[int]]:
        """``h(u, rows)`` and the exact d-sum, sum(i**2 * c_i) over each group of s
        consecutive rows where clause i fails c_i times, as Python ints, from one pass over
        slices of ``u``. A slice holds about SCORE_BLOCK_CELLS / 8 clause x group cells or
        fewer, so its int64 product stays near a 128 KB temporary whatever s is. A group may
        span slices, and its edges may cut a byte; each slice adds its share of every group
        it holds, at most d_max(m) times its rows (7.2e14 at MAX_EXACT_CLAUSES), so the
        int64 shares are exact."""
        if s < 1 or rows % s:
            raise ValueError(f"{rows} rows do not split into groups of {s}")
        h = np.empty(rows, np.min_scalar_type(self.m))
        d_sums = [0] * (rows // s)
        step = min(self.rows, _block_rows(SCORE_BLOCK_CELLS // 8, self.m) * s)
        for start in range(0, rows, step):  # step is a multiple of 8: slices start on a byte
            stop = min(rows, start + step)
            block = u[:, start // 8:-(-stop // 8)]
            h[start:stop] = self.h(block, stop - start)
            first = start // s
            edges = np.maximum(np.arange(first * s, stop, s) - start, 0)  # each part's first row
            at = edges // 8
            # whole bytes from each part's first byte on, then the bits of a cut byte below
            # its edge move to the part before; the unsigned sums may wrap, which is exact
            # because each result is a count of at most the slice's rows
            part = np.add.reduceat(
                np.bitwise_count(block), at, axis=1, dtype=np.min_scalar_type(stop - start))
            part[:, np.flatnonzero(at[1:] == at[:-1])] = 0  # reduceat's empty range gives a byte
            cut = np.bitwise_count(block[:, at] & ((1 << edges % 8) - 1).astype(np.uint8))
            part -= cut
            part[:, :-1] += cut[:, 1:]
            for k, share in enumerate((self._squares @ part).tolist(), start=first):
                d_sums[k] += share
        return h, d_sums

    def d(self, u: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Divergence, the sum of i**2 over the unsatisfied clauses i, of the rows ``index`` of
        the unsat block ``u``, in float64. Each row's bytes are gathered in slices of about
        SCORE_BLOCK_CELLS clause x row cells and masked to the row's bit b, so the product
        is 2**b times d: every partial sum is an integer below 128*d_max(m) < 2**53, and the
        division by 2**b is exact."""
        out = np.empty(len(index), np.float64)
        step = _block_rows(SCORE_BLOCK_CELLS, self.m)
        for lo in range(0, len(index), step):
            picked = index[lo:lo + step]
            bit = 1 << (picked & 7)
            bits = u.T[picked >> 3]  # (rows, m): a row-major gather, faster than u[:, ...]
            bits &= bit.astype(np.uint8)[:, None]
            out[lo:lo + step] = bits @ self._weights
            out[lo:lo + step] /= bit
        return out
