"""Distribution shaping: histograms, nearest-rank quantiles, shaped cost.

``CostHistogram`` is the one distribution type: a sampled cost or h
histogram, and the oracle's exact h-distributions of a prepared state.

The shaped objective is the mean cost plus the sum of nearest-rank quantiles
at the levels in a QuantileSet: the smallest cost whose cumulative frequency,
from the smallest cost upward, reaches p. ``level_shaped_costs`` takes them
for the GA's shots as each row's c-th smallest cost; the oracle takes its exact
ones over state masses itself.
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
        count an integer >= 1, both below 2**63, as is the counts' sum; ValueError names the
        stored entry ``name``."""
        if not isinstance(rows, list):
            raise ValueError(f"{name} must be a JSON list of rows, got {rows!r}")
        pairs = []
        for i, row in enumerate(rows):
            pair = (row.get(label), row.get("count")) if isinstance(row, dict) else (None, None)
            if not all(type(x) is int and 0 <= x < 2**63 for x in pair) or pair[1] < 1:
                raise ValueError(f"{name} row {i} needs integers 0 <= {label} < 2**63 and "
                                 f"1 <= count < 2**63: {row!r}")
            pairs.append(pair)
        if sum(count for _, count in pairs) >= 2**63:
            raise ValueError(f"{name} counts sum to 2**63 or more, past int64")
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
    rule for ``level_shaped_costs`` and the oracle's exact quantiles. cf_0 (before the
    first entry) counts as 0."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile level {p} outside (0, 1)")
    idx = int(np.searchsorted(cumfreq, p, side="left"))
    return float(values[min(idx, len(cumfreq) - 1)])  # float drift in a mass-based cumfreq tail


def shaped_cost(hist: CostHistogram, levels: QuantileSet) -> float:
    """Empirical mean plus the sum of the requested quantile values."""
    return hist.mean + sum(nearest_rank_quantile(hist.values, hist.cumfreq, p) for p in levels)


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
    total zeta*sum(h) + d_sum over s, correctly rounded. The quantile at p is the row's
    c-th smallest g, c the least with c/s >= p (the same float test as the shots' own
    cumulative frequency). As d < zeta, zeta*h alone orders shots at different h-levels,
    so only the shots at a quantile's h-level need d.
    Bit-identical to ``shaped_cost`` of the histogram of g while s*max(g) < 2**53.
    """
    s = h.shape[1]
    means = [(zeta * hs + ds) / s for hs, ds in zip(h.sum(axis=1).tolist(), d_sums)]
    ranks = np.searchsorted(np.arange(1, s + 1) / s, levels.levels)  # c - 1 of each level
    g = zeta * h.astype(np.int64)
    at = np.sort(g, axis=1)[:, ranks]  # zeta times the h-level of each quantile
    hit = g == at[:, :1]
    for col in at.T[1:, :, None]:
        hit |= g == col
    idx = np.flatnonzero(hit)
    g.reshape(-1)[idx] += d_at(idx).astype(np.int64)
    quantiles = np.sort(g, axis=1)[:, ranks]
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
