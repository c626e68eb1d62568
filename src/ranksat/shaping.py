"""Distribution shaping: histograms, nearest-rank quantiles, shaped cost.

``CostHistogram`` is the one distribution type: a sampled cost or h
histogram, and the oracle's exact h-distributions of a prepared state.

The shaped objective is the mean cost plus the sum of nearest-rank quantiles
at the levels in a QuantileSet: the smallest cost whose cumulative frequency,
from the smallest cost upward, reaches p. ``level_quantiles`` takes them for
both the GA's shots and the oracle's exact masses.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .cnf import CnfFormula, CostParams, _require_default_params

__all__ = [
    "CostHistogram",
    "QuantileSet",
    "DEFAULT_QUANTILE_LEVELS",
    "cost_histogram",
    "h_histogram",
    "shaped_cost",
    "level_quantiles",
    "level_shaped_costs",
    "nearest_rank_quantile",
    "rows_to_csv",
]

DEFAULT_QUANTILE_LEVELS = (0.01, 0.05, 0.1)


@dataclass(frozen=True)
class QuantileSet:
    """Sorted distinct probability levels in the open interval (0, 1)."""

    levels: tuple[float, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("quantile set must be nonempty")
        for p in self.levels:
            if not (0.0 < p < 1.0):
                raise ValueError(f"quantile level {p} outside (0, 1)")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError(f"levels must be sorted and distinct: {self.levels}")

    @classmethod
    def of(cls, levels: Iterable[float]) -> "QuantileSet":
        return cls(levels=tuple(sorted(set(float(p) for p in levels))))

    @classmethod
    def parse(cls, text: str) -> "QuantileSet":
        """Parse a comma-separated list such as '0.01,0.05,0.1'."""
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"cannot parse quantile levels from {text!r}")
        return cls.of(values)

    @classmethod
    def default(cls) -> "QuantileSet":
        return cls(levels=DEFAULT_QUANTILE_LEVELS)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)


@dataclass(frozen=True, eq=False)
class CostHistogram:
    """Distribution over strictly increasing values: counted items and their probabilities.

    One type serves both sides. Sampled, ``counts`` are shots and each
    probability is count/total. Exact (``ranksat.oracle``), ``counts`` are
    assignments and each probability is the state's mass at the value.
    ``cumfreq`` is the running sum of the probabilities, ending at 1, and
    ``mean`` is the mean over the counted items.
    """

    values: np.ndarray
    counts: np.ndarray  # int64
    probabilities: np.ndarray
    cumfreq: np.ndarray

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("histogram must be nonempty")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("histogram values must be strictly increasing")
        if np.any(self.counts <= 0):
            raise ValueError("histogram counts must be positive")
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("histogram probabilities must sum to 1")
        if abs(self.cumfreq[-1] - 1.0) > 1e-12:
            raise ValueError("cumulative frequency must end at 1")

    @classmethod
    def _counted(cls, values: np.ndarray, counts: np.ndarray) -> "CostHistogram":
        total = int(counts.sum())
        return cls(
            values=values, counts=counts.astype(np.int64),
            probabilities=counts / total, cumfreq=np.cumsum(counts) / total,
        )

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "CostHistogram":
        samples = np.asarray(samples)
        if samples.size == 0:
            raise ValueError("cannot build a histogram from zero samples")
        values, counts = np.unique(samples, return_counts=True)  # in the samples' own type
        return cls._counted(values.astype(np.float64), counts)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, int]]) -> "CostHistogram":
        """Build from (value, count) pairs, e.g. a published table; zero counts are dropped."""
        items = sorted((float(v), int(c)) for v, c in pairs)
        for v, c in items:
            if c < 0:
                raise ValueError(f"histogram count at value {v:g} is negative: {c}")
        items = [(v, c) for v, c in items if c > 0]
        values = np.array([v for v, _ in items], dtype=np.float64)
        return cls._counted(values, np.array([c for _, c in items], dtype=np.int64))

    @classmethod
    def from_json_obj(cls, rows: Sequence[dict], label: str = "h",
                      name: str = "histogram") -> "CostHistogram":
        """Read ``to_json_obj`` rows, a JSON list with each row's value an integer >= 0 and its
        count an integer >= 1, both below 2**63; ValueError names the stored entry ``name``."""
        if not isinstance(rows, list):
            raise ValueError(f"{name} must be a JSON list of rows, got {rows!r}")
        pairs = []
        for i, row in enumerate(rows):
            pair = (row.get(label), row.get("count")) if isinstance(row, dict) else (None, None)
            if not all(type(x) is int and 0 <= x < 2**63 for x in pair) or pair[1] < 1:
                raise ValueError(f"{name} row {i} needs integers 0 <= {label} < 2**63 and "
                                 f"1 <= count < 2**63: {row!r}")
            pairs.append(pair)
        return cls.from_pairs(pairs)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def h_values(self) -> np.ndarray:
        return self.values  # read only by perfbench/; drop with its next change (ROADMAP item 1)

    @property
    def mean(self) -> float:
        return float(np.dot(self.values, self.counts) / self.total)

    def count_at(self, value: float) -> int:
        return int(self.counts[self.values == value].sum())

    def probability_at(self, value: float) -> float:
        return float(self.probabilities[self.values == value].sum())

    def to_json_obj(self, label: str = "h") -> list[dict]:
        return [
            {
                label: int(v) if float(v).is_integer() else float(v),
                "count": int(c),
                "probability": float(p),
                "cumfreq": float(cf),
            }
            for v, c, p, cf in zip(self.values, self.counts, self.probabilities, self.cumfreq)
        ]

    def to_csv(self, label: str = "h") -> str:
        return rows_to_csv(self.to_json_obj(label), label)


def nearest_rank_quantile(
    values: np.ndarray, cumfreq: np.ndarray, p: float
) -> float:
    """Smallest value whose cumulative relative frequency reaches p; the reference
    rule for ``level_quantiles``. cf_0 (before the first entry) counts as 0."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile level {p} outside (0, 1)")
    idx = int(np.searchsorted(cumfreq, p, side="left"))
    return float(values[min(idx, len(cumfreq) - 1)])  # float drift in a mass-based cumfreq tail


def shaped_cost(hist: CostHistogram, levels: QuantileSet) -> float:
    """Empirical mean plus the sum of the requested quantile values."""
    return hist.mean + sum(nearest_rank_quantile(hist.values, hist.cumfreq, p) for p in levels)


def level_quantiles(
    weights: np.ndarray,
    zeta: int,
    levels: QuantileSet,
    items: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray | None]],
) -> np.ndarray:
    """(R, Q) int64 nearest-rank g = zeta*h + d of R rows at Q levels, in two steps as d < zeta.

    ``weights[r, h]`` weighs h-level h in row r: shot counts (then each fraction c / total is
    the sample's own cumulative frequency) or state masses. A quantile's h-level is the first
    whose cumulative weight reaches p of the row's total; ``items(hit)`` gets hit[r, h], the
    label of each chosen (row, h-level) in row-major order or -1, and returns (label, d, w) of
    each item there: integers, and float64 weights or None for 1s. The quantile's d is the
    first whose cumulative weight from the row's bottom reaches p (else the level's largest).
    """
    rows, width = weights.shape
    cum = np.cumsum(weights, axis=1, dtype=np.float64)
    at = np.count_nonzero(np.greater.outer(levels.levels, cum / cum[:, -1:]), axis=2).T
    chosen, label = np.unique(np.arange(rows)[:, None] * width + at, return_inverse=True)
    hit = np.full(rows * width, -1, np.min_scalar_type(-len(chosen)))
    hit[chosen] = np.arange(len(chosen))
    lab, d, w = items(hit.reshape(rows, width))
    key = lab.astype(np.min_scalar_type(-len(chosen) * zeta))  # narrow keys sort faster
    key *= zeta
    np.add(key, d, out=key, dtype=key.dtype, casting="unsafe")  # d may be exact float64
    del lab, d  # freed before the sort
    key, inverse = np.unique(key, return_inverse=True)  # the distinct (label, d), ascending
    cw = np.cumsum(np.bincount(inverse, w), dtype=np.float64)  # ties added in the caller's order
    seg = key // zeta
    bounds = np.searchsorted(key, np.arange(len(chosen) + 1) * zeta)  # each chosen has items
    first, last = bounds[:-1], bounds[1:] - 1
    r, h = np.divmod(chosen, width)
    offset = np.where(h > 0, cum.reshape(-1)[chosen - 1], 0.0) - np.append(0.0, cw)[first]
    cumfreq = (cw + offset[seg]) / cum[r[seg], -1]  # from the bottom of the row
    g = zeta * h[seg] + key % zeta
    skip = np.add.reduceat(np.less.outer(cumfreq, levels.levels), first, dtype=np.intp)
    pos = np.minimum(first[:, None] + skip, last[:, None])
    return g[pos[label.reshape(rows, -1), np.arange(len(levels))]]


def level_shaped_costs(
    h: np.ndarray,
    d_sums: Sequence[int],
    zeta: int,
    d_at: Callable[[np.ndarray], np.ndarray],
    levels: QuantileSet,
) -> list[float]:
    """``shaped_cost`` of the cost g = zeta*h + d over each row of shots, scored in integers.

    ``h`` is a (P, s) matrix of per-shot unsat counts, ``d_sums`` each row's exact total of
    d as an int (``ClauseArrays.h_d_sums``), ``zeta`` the integer weight d_max(m) + 1, and
    ``d_at(idx)`` the d of the shots at flat indices ``idx`` of ``h``. The mean is the exact
    total zeta*sum(h) + d_sum over s, correctly rounded; the quantiles are
    ``level_quantiles`` of the h-level shot counts, so only their shots need d.
    Bit-identical to ``shaped_cost`` of the histogram of g while s*max(g) < 2**53.
    """
    rows, s = h.shape
    means = [(zeta * hs + ds) / s for hs, ds in zip(h.sum(axis=1).tolist(), d_sums)]
    low, high = int(h.min()), int(h.max())  # the weights span the h-levels of shots
    flat = (np.arange(rows)[:, None] * (high - low + 1) + (h - low)).reshape(-1)

    def shots_at(hit: np.ndarray):
        label = hit.reshape(-1)[flat]
        idx = np.flatnonzero(label >= 0)
        return label[idx], d_at(idx), None

    counts = np.bincount(flat, minlength=rows * (high - low + 1)).reshape(rows, -1)
    quantiles = level_quantiles(counts, zeta, levels, shots_at) + zeta * low
    return (np.array(means) + quantiles.sum(axis=1)).tolist()


def cost_histogram(f: CnfFormula, bits: np.ndarray, params: CostParams) -> CostHistogram:
    """Histogram of the hierarchical cost g = zeta*h + d over the shots, the rows of the
    (s, n) 0/1 matrix ``bits`` (as ``qsim.sample`` returns).

    ``params`` must be ``default_params(f)``. Every g is an integer below
    2**53, so float64 holds it exactly.
    """
    _require_default_params(f, params)
    return CostHistogram.from_samples(
        f.arrays.scores(f.arrays.planes_of(bits), len(bits), params.zeta))


def h_histogram(f: CnfFormula, bits: np.ndarray) -> CostHistogram:
    """Histogram of the unsatisfied-clause count over the rows of ``bits``."""
    return CostHistogram.from_samples(f.arrays.scores(f.arrays.planes_of(bits), len(bits)))


def rows_to_csv(rows: Sequence[dict], value_label: str) -> str:
    """CSV with columns <value_label>,count,probability,cumfreq.

    ``rows`` are JSON table rows as emitted by ``CostHistogram.to_json_obj``,
    or stored in an artifact.
    """
    lines = [f"{value_label},count,probability,cumfreq"]
    lines += [
        f"{r[value_label]},{r['count']},{r['probability']:.9g},{r['cumfreq']:.9g}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"
