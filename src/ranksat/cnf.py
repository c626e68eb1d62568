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
    "load_instance_file",
    "to_dimacs",
    "eval_clause",
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


def load_instance_file(path: str) -> CnfFormula:
    """Load a DIMACS CNF or JSON instance, dispatching on extension."""
    if str(path).endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return parse_json_instance(fh.read())
    return parse_dimacs_file(path)


def to_dimacs(f: CnfFormula) -> str:
    """Serialize back to DIMACS; re-parsing yields an identical formula."""
    lines = [f"p cnf {f.n} {f.m}"]
    for clause in f.clauses:
        lines.append(" ".join(str(lit.signed) for lit in clause.literals) + " 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scoring

def eval_clause(clause: Clause, a: Sequence[int]) -> bool:
    """True iff at least one literal of the clause is satisfied by ``a``."""
    for lit in clause.literals:
        bit = a[lit.variable - 1]
        if (bit == 1) != lit.negated:
            return True
    return False


def h_count(f: CnfFormula, a: Sequence[int]) -> int:
    """Number of unsatisfied clauses; every entry of ``a`` must be 0 or 1."""
    if len(a) != f.n:
        raise ValueError(f"assignment length {len(a)} != n={f.n}")
    if any(bit not in (0, 1) for bit in a):
        raise ValueError("assignment bits must be 0 or 1")
    return sum(1 for clause in f.clauses if not eval_clause(clause, a))


# ---------------------------------------------------------------------------
# Batch scoring

SCORE_BLOCK_CELLS = 2**18  # clause x row cells per g or d block: a 2 MB float64 temporary
H_BLOCK_CELLS = 4 * SCORE_BLOCK_CELLS  # h keeps only 1-byte cells; 4x the rows measured fastest


class ClauseArrays:
    """Literal planes for scoring many assignments at once.

    ``bits`` arguments are (s, n) arrays of 0/1, and any other entry raises
    ValueError; all outputs are per-row. A block of rows becomes ``2n``
    planes: plane ``v`` is true where variable ``v`` (0-based) is 0, plane
    ``n + v`` where it is 1. ``_lits[j, i] = var + n*negated`` is the plane
    on which literal slot ``j`` of clause ``i`` fails, so a clause is
    unsatisfied on the AND of its gathered planes; a clause shorter than
    ``width`` repeats its first literal in the spare slots. ``h`` and
    ``h_counts`` score blocks of about H_BLOCK_CELLS clause x row cells, ``d``
    and ``g`` blocks of about SCORE_BLOCK_CELLS, one ``unsat_matrix`` call
    each, so their peaks do not grow with the number of rows.
    """

    def __init__(self, f: CnfFormula):
        self.n, self.m = f.n, f.m
        width = max((len(c.literals) for c in f.clauses), default=1)
        slots = [c.literals + c.literals[:1] * (width - len(c.literals)) for c in f.clauses]
        signed = np.array(
            [[lit.signed for lit in column] for column in zip(*slots)], dtype=np.int64
        ).reshape(width, self.m)
        self._lits = np.abs(signed) - 1 + self.n * (signed < 0)
        self._weights = np.arange(1, self.m + 1, dtype=np.float64) ** 2  # d's i**2 row

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
        """(s, m) boolean matrix: clause i unsatisfied by row r."""
        bits = self._checked(bits)
        s = len(bits)
        if s == 0:
            return np.zeros((0, self.m), dtype=np.bool_)
        planes = np.empty((2 * self.n, s), dtype=np.bool_)
        planes[self.n:] = bits.T
        np.logical_not(planes[self.n:], out=planes[:self.n])
        # one s-byte void item per plane, so each gathered plane is a single copy
        items = planes.view(np.dtype((np.void, s))).reshape(-1)
        unsat = items[self._lits[0]].view(np.bool_).reshape(self.m, s)
        for lits in self._lits[1:]:
            unsat &= items[lits].view(np.bool_).reshape(self.m, s)
        return unsat.T

    def _blocks(self, bits: np.ndarray, cells: int, group: int = 1):
        """(start, (m, rows) uint8 unsat block) over blocks of about ``cells`` cells, cut at
        whole groups of rows where one fits. Callers drop each block before the next."""
        bits = self._checked(bits)
        rows = max(1, cells // max(self.m, 1))
        rows = rows // group * group or rows
        for start in range(0, len(bits), rows):
            yield start, self.unsat_matrix(bits[start:start + rows]).T.view(np.uint8)

    def _per_row(self, bits: np.ndarray, cells: int, reduce, dtype) -> np.ndarray:
        out = np.empty(len(bits), dtype)
        for start, u in self._blocks(bits, cells):
            out[start:start + u.shape[1]] = reduce(u)
            del u  # else it stays alive while the next block is built
        return out

    def h(self, bits: np.ndarray) -> np.ndarray:
        """Per-row count of unsatisfied clauses, summed in the narrowest type holding m."""
        count = np.min_scalar_type(self.m)
        return self._per_row(bits, H_BLOCK_CELLS, lambda u: np.add.reduce(u, 0, count), np.int64)

    def h_counts(self, bits: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-row h, and the (rows // s, m) unsat count of each clause over each group of s
        consecutive rows, from one pass over the h blocks reduced in the narrowest types
        holding m and s. Blocks hold whole groups where one fits; a larger group spans
        blocks and sums its part of each, so the peak does not grow with s."""
        if s < 1 or len(bits) % s:
            raise ValueError(f"{len(bits)} rows do not split into groups of {s}")
        h = np.empty(len(bits), np.min_scalar_type(self.m))
        counts = np.zeros((len(bits) // s, self.m), np.min_scalar_type(s))
        for start, u in self._blocks(bits, H_BLOCK_CELLS, s):
            stop = start + u.shape[1]
            np.add.reduce(u, 0, h.dtype, out=h[start:stop])
            if start % s == 0 and stop % s == 0:  # whole groups
                counts[start // s:stop // s] = np.add.reduce(
                    u.reshape(self.m, -1, s), 2, counts.dtype).T
            else:  # part of a group larger than a block, or of two
                for g in range(start // s, (stop - 1) // s + 1):
                    lo, hi = max(g * s, start) - start, min(g * s + s, stop) - start
                    counts[g] += np.add.reduce(u[:, lo:hi], 1, counts.dtype)
            del u
        return h, counts

    def d(self, bits: np.ndarray) -> np.ndarray:
        """Per-row divergence, the sum of i**2 over the unsatisfied clauses i, in float64:
        every partial sum is an integer of at most d_max(m) < 2**53, so it is exact."""
        return self._per_row(bits, SCORE_BLOCK_CELLS, lambda u: self._weights @ u, np.float64)

    def g(self, bits: np.ndarray) -> np.ndarray:
        """Per-row cost zeta*h + d in float64, exact up to MAX_EXACT_CLAUSES: every term and
        partial sum of ``(zeta + i**2) . unsat`` is an integer of at most 2**53. Only
        ``shaping.cost_histogram`` uses it; the GA scores ``h_counts`` and ``d`` instead."""
        weights = _cost_base(self.m) + self._weights
        return self._per_row(bits, SCORE_BLOCK_CELLS, lambda u: weights @ u, np.float64)
