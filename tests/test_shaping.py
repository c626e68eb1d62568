import math
from fractions import Fraction

import numpy as np
import pytest

import ranksat as rs
from ranksat.qsim import AngleVector, ShotSet, prepare_state, sample
from ranksat.shaping import (
    CostHistogram,
    QuantileSet,
    cost_histogram,
    h_histogram,
    level_shaped_costs,
    nearest_rank_quantile,
    quantile,
    shaped_cost,
)

from ranksat.cnf import MAX_EXACT_CLAUSES, d_max

from conftest import all_assignments


def _random_hist(rng):
    size = int(rng.integers(1, 12))
    values = np.cumsum(rng.uniform(0.5, 3.0, size))
    counts = rng.integers(1, 40, size)
    return CostHistogram.from_pairs(zip(values, counts))


def test_all_satisfying_shots(widget):
    shots = ShotSet(bits=np.tile([1, 1, 1, 0, 0], (4, 1)).astype(np.uint8))
    hist = cost_histogram(widget, shots, rs.default_params(widget))
    assert list(hist.values) == [0.0]
    assert list(hist.counts) == [4]
    assert hist.cumfreq[-1] == 1.0
    assert shaped_cost(hist, QuantileSet.default()) == 0.0


def test_exhaustive_widget_h_projection(widget):
    shots = ShotSet(bits=all_assignments(widget.n))
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
    shots = ShotSet(bits=all_assignments(widget.n))
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
    shots = ShotSet(bits=all_assignments(3))
    with pytest.raises(ValueError, match="bits"):
        cost_histogram(widget, shots, rs.default_params(widget))


@pytest.mark.parametrize("zeta,vartheta", [(386.0, 2.0), (1e20, 1.0)])
def test_cost_weights_are_fixed(widget, zeta, vartheta):
    shots = ShotSet(bits=all_assignments(widget.n))
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


def test_level_shaped_mean_is_correctly_rounded_above_2_53():
    # 4000 unit clauses: about half fail per shot, so the 250-shot total of g exceeds 2**53
    rng = np.random.default_rng(2)
    m, n, s = 4000, 12, 250
    lits = (rng.integers(1, n + 1, m) * rng.choice([-1, 1], m)).tolist()
    f = rs.CnfFormula.from_signed(n, [[lit] for lit in lits])
    bits = rng.integers(0, 2, (s, n)).astype(np.uint8)
    levels = QuantileSet.default()
    h, counts = f.arrays.h_counts(bits, s)
    value = level_shaped_costs(h.reshape(1, s), counts, lambda i: f.arrays.d(bits[i]), levels)
    g = f.arrays.g(bits)
    total = sum(int(x) for x in g)
    assert total > 2**53
    mean = float(Fraction(total, s))
    hist = CostHistogram.from_samples(g)
    assert value == [mean + sum(quantile(hist, p) for p in levels)]
    # the former float path rounds the sum and then the quotient: one unit off here
    assert math.fsum(g) / s != mean


def test_level_shaped_total_cannot_overflow_at_the_clause_limit():
    # synthetic counts: every one of 2**20 shots leaves all MAX_EXACT_CLAUSES clauses unsatisfied
    m, s = MAX_EXACT_CLAUSES, 2**20
    g_max = (d_max(m) + 1) * m + d_max(m)
    assert s * g_max > 2**63  # the integer total does not fit int64
    h = np.full((1, s), m, dtype=np.int16)
    counts = np.full((1, m), s, dtype=np.uint32)
    value = level_shaped_costs(h, counts, lambda i: np.full(len(i), float(d_max(m))),
                               QuantileSet.default())
    assert value == [float(g_max) + (float(g_max) + g_max + g_max)]
