import math
from fractions import Fraction

import numpy as np
import pytest

import ranksat as rs
from ranksat import oracle
from ranksat.qsim import AngleVector, prepare_state, sample
from ranksat.shaping import (
    CostHistogram,
    QuantileSet,
    cost_histogram,
    h_histogram,
    level_shaped_costs,
    nearest_rank_quantile,
    shaped_cost,
)

from ranksat.cnf import MAX_EXACT_CLAUSES, d_max

from conftest import all_assignments
from dense_reference import bit_planes, quantile


def _random_hist(rng):
    size = int(rng.integers(1, 12))
    values = np.cumsum(rng.uniform(0.5, 3.0, size))
    counts = rng.integers(1, 40, size)
    return CostHistogram.from_pairs(zip(values, counts))


def test_all_satisfying_shots(widget):
    shots = np.tile([1, 1, 1, 0, 0], (4, 1)).astype(np.uint8)
    hist = cost_histogram(widget, shots, rs.default_params(widget))
    assert list(hist.values) == [0.0]
    assert list(hist.counts) == [4]
    assert hist.cumfreq[-1] == 1.0
    assert shaped_cost(hist, QuantileSet.default()) == 0.0


def test_exhaustive_widget_h_projection(widget):
    shots = all_assignments(widget.n)
    hist = h_histogram(widget, shots)
    assert list(hist.values) == [0, 1, 2]
    assert list(hist.counts) == [4, 16, 12]


def test_quantile_single_entry():
    hist = CostHistogram.from_pairs([(3.0, 5)])
    for p in (0.01, 0.5, 0.99):
        assert quantile(hist, p) == 3.0


def test_quantile_defining_inequalities():
    rng = np.random.default_rng(12)
    for _ in range(50):
        hist = _random_hist(rng)
        p = float(rng.uniform(0.001, 0.999))
        e = quantile(hist, p)
        idx = int(np.searchsorted(hist.values, e))
        assert hist.values[idx] == e  # member of the support
        assert hist.cumfreq[idx] >= p
        cf_pred = hist.cumfreq[idx - 1] if idx > 0 else 0.0
        assert cf_pred < p


def test_quantile_monotone_in_p():
    rng = np.random.default_rng(13)
    for _ in range(20):
        hist = _random_hist(rng)
        ps = np.sort(rng.uniform(0.01, 0.99, 6))
        qs = [quantile(hist, p) for p in ps]
        assert all(a <= b for a, b in zip(qs, qs[1:]))


def test_quantile_rejects_bad_level():
    hist = CostHistogram.from_pairs([(1.0, 1)])
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            quantile(hist, p)


def test_shaped_cost_degenerate_mass():
    hist = CostHistogram.from_pairs([(7.0, 10)])
    levels = QuantileSet.of([0.1, 0.3, 0.5, 0.9])
    assert shaped_cost(hist, levels) == 7.0 * 5


def test_shaped_cost_widget_h_units(widget):
    shots = all_assignments(widget.n)
    hist = h_histogram(widget, shots)
    assert hist.mean == pytest.approx(40 / 32)
    assert shaped_cost(hist, QuantileSet.of([0.5])) == pytest.approx(2.25)


def test_shaped_cost_at_least_mean():
    rng = np.random.default_rng(14)
    levels = QuantileSet.default()
    for _ in range(20):
        hist = _random_hist(rng)
        assert shaped_cost(hist, levels) >= hist.mean


def test_shaped_cost_right_shift_monotone():
    rng = np.random.default_rng(15)
    levels = QuantileSet.default()
    for _ in range(20):
        hist = _random_hist(rng)
        shifted = CostHistogram.from_pairs(zip(hist.values + 2.5, hist.counts))
        assert shaped_cost(shifted, levels) >= shaped_cost(hist, levels)


def test_csv_json_round_trip():
    hist = CostHistogram.from_pairs([(0.0, 3), (2.5, 4), (7.0, 1)])
    assert hist.to_csv("g") == (
        "g,count,probability,cumfreq\n"
        "0,3,0.375,0.375\n"
        "2.5,4,0.5,0.875\n"
        "7,1,0.125,1\n"
    )
    rows = hist.to_json_obj("g")
    assert rows[-1]["cumfreq"] == 1.0
    with pytest.raises(ValueError, match="row 1"):
        CostHistogram.from_json_obj(rows, "g")  # stored values are integers
    whole = CostHistogram.from_pairs([(0, 3), (2, 4), (7, 1)])
    again2 = CostHistogram.from_json_obj(whole.to_json_obj("g"), "g")
    np.testing.assert_array_equal(again2.values, whole.values)


def test_from_json_obj_refuses_counts_that_sum_past_int64():
    # each count fits int64, their sum does not: refused by name, not as a wrapped sum
    rows = [{"h": 0, "count": 2**62}, {"h": 1, "count": 2**62}]
    with pytest.raises(ValueError, match=r"final counts sum to 2\*\*63 or more"):
        CostHistogram.from_json_obj(rows, name="final")
    rows[1]["count"] -= 1
    assert CostHistogram.from_json_obj(rows).total == 2**63 - 1


def test_quantile_set_validation():
    with pytest.raises(ValueError):
        QuantileSet(levels=())
    with pytest.raises(ValueError):
        QuantileSet(levels=(0.0, 0.5))
    with pytest.raises(ValueError):
        QuantileSet(levels=(0.5, 0.5))
    with pytest.raises(ValueError):
        QuantileSet(levels=(0.6, 0.2))
    assert QuantileSet.parse("0.1, 0.01").levels == (0.01, 0.1)
    assert QuantileSet.default().levels == (0.01, 0.05, 0.1)


def test_from_pairs_drops_zero_counts_and_refuses_negative_ones():
    hist = CostHistogram.from_pairs([(4, 2), (1, 0), (2, 6)])
    assert hist.values.tolist() == [2.0, 4.0]
    assert hist.counts.tolist() == [6, 2]
    assert hist.total == 8
    assert hist.count_at(1) == 0 and hist.count_at(4) == 2
    assert hist.probability_at(2) == 0.75 and hist.probability_at(3) == 0.0
    with pytest.raises(ValueError, match="value 1 is negative"):
        CostHistogram.from_pairs([(2, 6), (1, -5)])


def test_histogram_validation():
    with pytest.raises(ValueError):
        CostHistogram.from_samples(np.array([]))
    with pytest.raises(ValueError):
        CostHistogram(
            values=np.array([1.0]), counts=np.array([2]), probabilities=np.array([2 / 3]),
            cumfreq=np.array([1.0]),
        )


def test_cost_histogram_checks_inputs(widget):
    shots = all_assignments(3)
    with pytest.raises(ValueError, match="bits"):
        cost_histogram(widget, shots, rs.default_params(widget))


@pytest.mark.parametrize("zeta,vartheta", [(386.0, 2.0), (1e20, 1.0)])
def test_cost_weights_are_fixed(widget, zeta, vartheta):
    shots = all_assignments(widget.n)
    angles, levels = AngleVector.zeros(2), QuantileSet.default()
    other = rs.CostParams(zeta=zeta, vartheta=vartheta)
    with pytest.raises(ValueError, match="fixed weights"):
        cost_histogram(widget, shots, other)
    with pytest.raises(ValueError, match="fixed weights"):
        rs.exact_shaped_cost(widget, angles, other, levels)
    fixed = rs.default_params(widget)
    assert cost_histogram(widget, shots, fixed).total == 32
    assert rs.exact_shaped_cost(widget, angles, fixed, levels) > 0


def test_sampled_vs_exact_consistency_light(widget):
    params = rs.default_params(widget)
    levels = QuantileSet.default()
    exact = rs.exact_shaped_cost(widget, AngleVector.zeros(2), params, levels)
    state = prepare_state(widget.n, AngleVector.zeros(2))
    shots = sample(state, 50_000, np.random.default_rng(3))
    sampled = shaped_cost(cost_histogram(widget, shots, params), levels)
    assert sampled == pytest.approx(exact, rel=0.03)


def test_uniform_sampling_matches_uf20_01_reference():
    from conftest import load_count_csv, satlib_instance

    path = satlib_instance("uf20-01.cnf")
    f = rs.parse_dimacs_file(str(path))
    state = prepare_state(f.n, AngleVector.zeros(2))
    shots = sample(state, 100_000, np.random.default_rng(17))
    hist = h_histogram(f, shots)
    sampled = {int(v): c / hist.total for v, c in zip(hist.values, hist.counts)}
    for h, count in load_count_csv("uf20_01_initial_h.csv"):
        expected = count / 2**20
        assert abs(sampled.get(h, 0.0) - expected) < 0.003  # 0.3 percentage points


def test_nearest_rank_quantile_mass_path():
    values = np.array([1.0, 2.0, 3.0])
    cum = np.array([0.2, 0.7, 1.0])
    assert nearest_rank_quantile(values, cum, 0.2) == 1.0
    assert nearest_rank_quantile(values, cum, 0.2000001) == 2.0
    assert nearest_rank_quantile(values, cum, 0.9999999) == 3.0


# rows of (h, d) shots. Row 0: h-level 0 holds 5 of 100 shots, a cumulative frequency of
# exactly p = 0.05, and h-levels 1-2 and 4-5 hold no shot between levels that do. Row 1:
# 0.06 and 0.1 land on h-level 4, and h-level 1 reaches 0.05 exactly. Row 2 is one shot
SHOT_ROWS = [
    [(0, 9), (0, 2), (0, 7), (0, 2), (0, 5)] + [(3, k % 4) for k in range(60)]
    + [(6, k % 7) for k in range(35)],
    [(1, 3), (4, 8), (4, 1), (4, 6), (4, 1), (4, 0)] + [(5, 2)] * 14,
    [(2, 4)],
]


def test_shot_quantiles_are_the_sampled_quantiles():
    # each row alone through level_shaped_costs, one level at a time: the shaped cost less
    # the mean is the quantile
    zeta, levels = 10, [0.01, 0.05, 0.06, 0.1, 0.5, 0.99]
    got = []
    for shots in SHOT_ROWS:
        h, d = np.array(shots).T
        mean = (zeta * int(h.sum()) + int(d.sum())) / len(shots)
        costs = [level_shaped_costs(h[None], [int(d.sum())], zeta, lambda idx: d[idx] * 1.0,
                                    QuantileSet.of([p]))[0] for p in levels]
        got.append([round(cost - mean) for cost in costs])
        hist = CostHistogram.from_samples([zeta * hs + ds for hs, ds in shots])
        assert got[-1] == [quantile(hist, p) for p in levels]
    assert got[0][:3] == [2, 9, 30]  # 0.05 is reached at level 0's largest d
    assert got[1][1:4] == [13, 40, 40]
    assert got[2] == [24] * len(levels)


def test_oracle_quantiles_of_masses_match_a_dense_g_table():
    # float masses, with zero-mass ranks and an h-level of zero mass between nonzero ones
    rng = np.random.default_rng(11)
    zeta, levels = 50, QuantileSet.of([0.01, 0.05, 0.1, 0.3, 0.5, 0.9])
    row, h, d = rng.integers(0, 4, 3000), rng.integers(0, 9, 3000), rng.integers(0, 50, 3000)
    w = rng.random(3000) ** 4 * (h != 3) * (rng.random(3000) > 0.1)
    for r in range(4):
        hr, dr, wr = h[row == r], d[row == r], w[row == r]
        got = oracle._quantiles(np.bincount(hr, wr), hr.astype(np.uint8), dr, wr, zeta, levels)
        mass = np.bincount(zeta * hr + dr, wr, minlength=9 * zeta)
        values = np.arange(mass.size, dtype=np.float64)
        cum = np.cumsum(mass) / mass.sum()
        assert got.tolist() == [nearest_rank_quantile(values, cum, p) for p in levels]


def test_oracle_quantiles_clamp_to_the_levels_largest_d():
    # the ranks of h-level 1 weigh 0.4 of its 0.5, as float drift may leave them a little
    # short: p = 0.99 reaches the level but none of its ranks, so it takes the largest d
    mass, levels = np.array([0.5, 0.5]), QuantileSet.of([0.99])
    ranks = [(np.array([1, 1], np.uint8), np.array([3, 5]), np.array([0.2, 0.2])),
             (np.array([1], np.uint8), np.array([4]), np.array([0.5]))]
    got = [oracle._quantiles(mass, h, d, w, 10, levels).tolist() for h, d, w in ranks]
    assert got == [[15], [14]]


def test_level_shaped_mean_is_correctly_rounded_above_2_53():
    # 4000 unit clauses: about half fail per shot, so the 250-shot total of g exceeds 2**53
    rng = np.random.default_rng(2)
    m, n, s = 4000, 12, 250
    lits = (rng.integers(1, n + 1, m) * rng.choice([-1, 1], m)).tolist()
    f = rs.CnfFormula.from_signed(n, [[lit] for lit in lits])
    bits = rng.integers(0, 2, (s, n)).astype(np.uint8)
    levels = QuantileSet.default()
    u = f.arrays.unsat_matrix(bit_planes(bits), s)
    h, d_sums = f.arrays.h_d_sums(u, s, s)
    zeta = int(rs.default_params(f).zeta)
    value = level_shaped_costs(h.reshape(1, s), d_sums, zeta, lambda i: f.arrays.d(u, i), levels)
    hist = cost_histogram(f, bits, rs.default_params(f))
    total = sum(int(g) * int(c) for g, c in zip(hist.values, hist.counts))
    assert total > 2**53
    mean = float(Fraction(total, s))
    assert value == [mean + sum(quantile(hist, p) for p in levels)]
    # the former float path rounds the sum and then the quotient: one unit off here
    assert math.fsum(hist.values.repeat(hist.counts)) / s != mean


def test_level_shaped_total_cannot_overflow_at_the_clause_limit():
    # synthetic d-sums: every shot leaves all MAX_EXACT_CLAUSES clauses unsatisfied
    m = MAX_EXACT_CLAUSES
    zeta = d_max(m) + 1
    g_max = zeta * m + d_max(m)

    def d_at(idx):
        return np.full(len(idx), float(d_max(m)))

    # one row of 2**20 shots, whose integer total does not fit int64; then 1025 rows of one
    # shot, the fewest at which a sort key (r*(m+1) + h)*zeta + d does not fit it
    for rows, s in ((1, 2**20), (1025, 1)):
        assert max(s * g_max, rows * (m + 1) * zeta) > 2**63
        h = np.full((rows, s), m, dtype=np.int16)
        value = level_shaped_costs(h, [s * d_max(m)] * rows, zeta, d_at, QuantileSet.default())
        assert value == [float(g_max) + (float(g_max) + g_max + g_max)] * rows
    # a d-sum above 2**63, more than any real one, still enters the mean as an exact int
    h, d_sum = np.full((1, 8), m, dtype=np.int16), 2**64 + 5
    value = level_shaped_costs(h, [d_sum], zeta, d_at, QuantileSet.default())
    assert value == [float(Fraction(8 * zeta * m + d_sum, 8)) + float(3 * g_max)]
