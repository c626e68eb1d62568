import gc
import math
import tracemalloc

import numpy as np
import pytest

import ranksat as rs
from ranksat import oracle
from ranksat.cnf import MAX_EXACT_CLAUSES, d_max
from ranksat.oracle import (
    GuardError,
    enumerate_h,
    exact_g_distribution,
    exact_h_distribution,
    exact_shaped_cost,
    list_solutions,
)
from ranksat.qsim import AngleVector, prepare_state, sample
from ranksat.shaping import QuantileSet, h_histogram, nearest_rank_quantile

from conftest import all_assignments, random_formula, scored
from dense_reference import (
    dense_state,
    float_g_distribution,
    g_cost,
    probability,
    rank_of,
    slice_unsat_table,
    to_dimacs,
)


def test_enumerate_widget(widget):
    table = enumerate_h(widget)
    assert table.values.tolist() == [0, 1, 2]
    assert table.counts.tolist() == [4, 16, 12]
    assert table.probabilities.tolist() == [0.125, 0.5, 0.375]
    assert table.total == 32
    assert table.counts.sum() == 32


def test_enumerate_empty_formula():
    table = enumerate_h(rs.CnfFormula(n=3, clauses=()))
    assert table.values.tolist() == [0]
    assert table.counts.tolist() == [8]
    assert table.probabilities.tolist() == [1.0]


def test_resource_guard():
    big = rs.CnfFormula.from_signed(27, [[1, 2, 3]])
    with pytest.raises(GuardError, match="n <= 26"):
        enumerate_h(big)
    small = rs.CnfFormula.from_signed(5, [[1]])
    with pytest.raises(GuardError):
        list_solutions(small, max_n=4)
    with pytest.raises(GuardError):
        exact_h_distribution(big, AngleVector.zeros(1))
    # the guard is configurable
    assert enumerate_h(small, max_n=5).total == 32


def test_list_solutions_widget(widget):
    sols = list_solutions(widget)
    assert sols == [
        [1, 1, 1, 0, 0],
        [1, 1, 1, 1, 0],
        [1, 1, 1, 0, 1],
        [1, 1, 1, 1, 1],
    ]
    ranks = [rank_of(s) for s in sols]
    assert ranks == sorted(ranks)


def test_list_solutions_unsat():
    f = rs.CnfFormula.from_signed(1, [[1], [-1]])
    assert list_solutions(f) == []


def test_list_solutions_matches_h0_count():
    rng = np.random.default_rng(21)
    for _ in range(10):
        f = random_formula(rng)
        assert len(list_solutions(f)) == enumerate_h(f).count_at(0)


def test_exact_h_zero_angles_equals_enumeration(widget):
    rng = np.random.default_rng(22)
    for f in (widget, random_formula(rng, n=10, m=30)):
        exact = exact_h_distribution(f, AngleVector.zeros(2))
        uniform = enumerate_h(f)
        np.testing.assert_array_equal(exact.values, uniform.values)
        np.testing.assert_array_equal(exact.counts, uniform.counts)
        np.testing.assert_allclose(
            exact.probabilities, uniform.probabilities, atol=1e-12
        )


def test_exact_h_pinned_single_qubit():
    f = rs.CnfFormula.from_signed(1, [[1]])
    table = exact_h_distribution(
        f, AngleVector(betas=(math.pi / 4,), gammas=(math.pi / 2,))
    )
    assert table.probability_at(0) == pytest.approx(1.0, abs=1e-12)
    assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_exact_h_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    for _ in range(5):
        f = random_formula(rng, n=7)
        angles = AngleVector(
            betas=tuple(rng.uniform(0, math.pi, 2)),
            gammas=tuple(rng.uniform(0, 2 * math.pi, 2)),
        )
        table = exact_h_distribution(f, angles)
        assert table.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert table.counts.sum() == 1 << f.n


def test_sampler_agrees_with_exact_distribution(widget):
    from scipy import stats

    angles = AngleVector(betas=(0.5, 1.0), gammas=(0.9, 1.7))
    exact = exact_h_distribution(widget, angles)
    state = prepare_state(widget.n, angles)
    shots = sample(state, 100_000, np.random.default_rng(31))
    observed = np.zeros(len(exact.values))
    hist = h_histogram(widget, shots)
    lookup = {int(v): int(c) for v, c in zip(hist.values, hist.counts)}
    for i, h in enumerate(exact.values):
        observed[i] = lookup.get(int(h), 0)
    expected = exact.probabilities * len(shots)
    keep = expected >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    _, pvalue = stats.chisquare(obs, exp * obs.sum() / exp.sum())
    assert pvalue > 6.33e-5


def test_exact_shaped_cost_concentrated_state():
    f = rs.CnfFormula.from_signed(1, [[1]])
    angles = AngleVector(betas=(math.pi / 4,), gammas=(math.pi / 2,))
    cost = exact_shaped_cost(f, angles, rs.default_params(f), QuantileSet.default())
    assert cost == pytest.approx(0.0, abs=1e-9)


def test_exact_shaped_cost_matches_bruteforce(widget):
    # independent reference: explicit per-assignment loop over state probabilities
    params = rs.default_params(widget)
    levels = QuantileSet.of([0.05, 0.5])
    angles = AngleVector(betas=(0.6, 0.2), gammas=(1.3, 0.8))
    state = prepare_state(widget.n, angles)
    pairs = []
    for r in range(32):
        bits = [(r >> j) & 1 for j in range(5)]
        g = g_cost(widget, bits)
        pairs.append((g, probability(state, bits)))
    pairs.sort()
    support: dict[float, float] = {}
    for g, p in pairs:
        support[g] = support.get(g, 0.0) + p
    values = sorted(support)
    mass = np.array([support[v] for v in values])
    cum = np.cumsum(mass) / mass.sum()
    mean = sum(v * support[v] for v in values) / mass.sum()
    expected = mean
    for p in levels:
        idx = int(np.searchsorted(cum, p, side="left"))
        expected += values[idx]
    got = exact_shaped_cost(widget, angles, params, levels)
    assert got == pytest.approx(expected, rel=1e-12)


def test_exact_g_distribution_mass():
    rng = np.random.default_rng(24)
    f = random_formula(rng, n=6, m=12)
    angles = AngleVector(
        betas=tuple(rng.uniform(0, math.pi, 2)),
        gammas=tuple(rng.uniform(0, 2 * math.pi, 2)),
    )
    values, mass = exact_g_distribution(f, angles)
    assert np.all(np.diff(values) > 0)
    assert mass.sum() == pytest.approx(1.0, abs=1e-9)


CROSSCHECK_FORMULAS = [
    # clause widths 1-4 in one formula, variables 1 and n, both signs
    rs.CnfFormula.from_signed(
        6, [[1], [-6, 2], [3, -4, 6], [-1, 5, -2, 4], [6, -3], [-5, 1, 3, -6]]
    ),
    rs.CnfFormula.from_signed(4, [[-4], [1, 2, -3, 4], [2, -1], [3, 4, -2], [1, -4]]),
    rs.CnfFormula.from_signed(1, [[1], [-1], [-1]]),
    rs.CnfFormula.from_signed(1, [[-1]]),
    rs.CnfFormula(n=3, clauses=()),
]


@pytest.mark.parametrize("f", CROSSCHECK_FORMULAS, ids=lambda f: f"n{f.n}m{f.m}")
def test_oracle_matches_scalar_loop(f):
    # reference: one scalar h_count / g_cost / probability call per assignment
    angles = AngleVector(betas=(0.4, 1.1), gammas=(0.7, 2.9))
    state = prepare_state(f.n, angles)
    counts: dict[int, int] = {}
    h_mass: dict[int, float] = {}
    g_mass: dict[float, float] = {}
    solutions = []
    for rank in range(1 << f.n):
        bits = [(rank >> j) & 1 for j in range(f.n)]
        h, p = rs.h_count(f, bits), probability(state, bits)
        counts[h] = counts.get(h, 0) + 1
        h_mass[h] = h_mass.get(h, 0.0) + p
        g = g_cost(f, bits)
        g_mass[g] = g_mass.get(g, 0.0) + p
        if h == 0:
            solutions.append(bits)

    table = enumerate_h(f)
    assert dict(zip(table.values.tolist(), table.counts.tolist())) == counts
    assert list_solutions(f) == solutions
    exact_h = exact_h_distribution(f, angles)
    assert exact_h.values.tolist() == sorted(counts)
    np.testing.assert_allclose(
        exact_h.probabilities, [h_mass[h] for h in sorted(h_mass)], rtol=0, atol=1e-12
    )
    values, mass = exact_g_distribution(f, angles)
    assert values.tolist() == sorted(g_mass)
    np.testing.assert_allclose(
        mass, [g_mass[g] for g in sorted(g_mass)], rtol=0, atol=1e-12
    )


def test_dense_crosscheck_exact_h():
    rng = np.random.default_rng(25)
    f = random_formula(rng, n=8, m=20)
    betas = tuple(rng.uniform(0, math.pi, 2))
    gammas = tuple(rng.uniform(0, 2 * math.pi, 2))
    table = exact_h_distribution(f, AngleVector(betas, gammas))

    dense = dense_state(f.n, betas, gammas)
    probs = np.abs(dense) ** 2
    h = scored(f, all_assignments(f.n))[0]
    buckets = np.bincount(h, weights=probs, minlength=f.m + 1)
    for value, p in zip(table.values, table.probabilities):
        assert abs(buckets[value] - p) < 1e-10


def test_table_serialization(widget):
    table = enumerate_h(widget)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "h,count,probability,cumfreq"
    assert csv.splitlines()[1] == "0,4,0.125,0.125"
    rows = table.to_json_obj()
    assert rows[-1]["cumfreq"] == pytest.approx(1.0)
    probs = [row["probability"] for row in rows]
    assert sum(probs) == pytest.approx(1.0, abs=1e-4)


def _mixed_width_formula(rng, n, m):
    clauses = []
    for _ in range(m):
        width = int(rng.integers(1, min(4, n) + 1))
        variables = rng.choice(n, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(variables, signs)])
    return rs.CnfFormula.from_signed(n, clauses)


def _assert_shaped_cost_matches(f, angles, values, mass):
    """Quantile terms equal the reference's exactly; the mean, a float sum in
    another order, agrees to rel 1e-15. The levels include the first g-value
    and the clamp at the top of a drifting cumulative frequency."""
    total = float(mass.sum())
    cum = np.cumsum(mass) / total
    ref_mean = float(np.dot(values, mass) / total)
    for levels in (QuantileSet.default(), QuantileSet.of([1e-9, 0.5, 1 - 2 ** -53])):
        mean, quantiles = oracle._exact_cost_terms(f, angles, levels, f.n)
        assert quantiles == [nearest_rank_quantile(values, cum, p) for p in levels]
        assert mean == pytest.approx(ref_mean, rel=1e-15)
        cost = exact_shaped_cost(f, angles, rs.default_params(f), levels)
        assert cost == mean + sum(quantiles)


@pytest.mark.parametrize("n,m", [(1, 3), (5, 14), (12, 50), (17, 72)])
@pytest.mark.parametrize("weights", [rs.default_params], ids=["default"])
def test_exact_g_distribution_matches_float_path(n, m, weights):
    f = _mixed_width_formula(np.random.default_rng(n), n, m)
    angles = AngleVector(betas=(0.3, 0.7), gammas=(1.1, 2.3))
    values, mass = exact_g_distribution(f, angles)
    ref_values, ref_mass = float_g_distribution(f, angles, weights(f))
    assert values.tobytes() == ref_values.tobytes()
    assert mass.tobytes() == ref_mass.tobytes()
    _assert_shaped_cost_matches(f, angles, ref_values, ref_mass)


def test_exact_g_distribution_refuses_key_overflow(monkeypatch):
    # the integer (h, d) key is exact in float64 up to MAX_EXACT_CLAUSES clauses
    angles = AngleVector.zeros(1)
    limit = MAX_EXACT_CLAUSES
    top = rs.CnfFormula.from_signed(1, [[1]] * limit)
    d = d_max(limit)
    values, mass = exact_g_distribution(top, angles)
    # rank 0 leaves every clause unsatisfied: the largest cost at the limit
    assert values.tolist() == [0.0, (d + 1) * limit + d]
    ref_values, ref_mass = float_g_distribution(top, angles, rs.default_params(top))
    assert values.tobytes() == ref_values.tobytes() and mass.tobytes() == ref_mass.tobytes()

    # the top cost needs all 53 bits of the float64 significand
    assert int(values[-1]).bit_length() == 53

    over = rs.CnfFormula.from_signed(1, [[1]] * (limit + 1))
    builds = []
    monkeypatch.setattr(oracle, "_unsat_table", lambda *args: builds.append(args))
    with pytest.raises(ValueError, match=f"limit of {limit}"):
        exact_g_distribution(over, angles)
    assert builds == []


def test_exact_paths_at_the_clause_limit():
    # every clause fails at the same ranks, where the cost takes its largest exact value
    angles = AngleVector(betas=(0.3, 0.7), gammas=(1.1, 2.3))
    limit = MAX_EXACT_CLAUSES
    f = rs.CnfFormula.from_signed(12, [[1, -7, 12]] * limit)
    d = d_max(limit)
    values, mass = exact_g_distribution(f, angles)
    assert values.tolist() == [0.0, (d + 1) * limit + d]
    assert int(values[-1]).bit_length() == 53
    ref_values, ref_mass = float_g_distribution(f, angles, rs.default_params(f))
    assert values.tobytes() == ref_values.tobytes() and mass.tobytes() == ref_mass.tobytes()
    assert oracle._table(f, "d", f.n).dtype == np.uint64
    _assert_shaped_cost_matches(f, angles, ref_values, ref_mass)


def _layered_formula(rng, n, m):
    """Random clauses of widths 1-4, plus an all-low clause and, above the
    table builder's low-bit boundary, all-high and mixed clauses."""
    f = _mixed_width_formula(rng, n, m)
    low = min(n, oracle._LOW_BITS)
    groups = [{1, (low + 1) // 2, low}]
    if n > low:
        groups += [{low + 1, n}, {1, n}, {low, low + 1}]
    extra = [[v if k % 2 else -v for k, v in enumerate(sorted(g))] for g in groups]
    return rs.CnfFormula.from_signed(
        n, [[lit.signed for lit in c.literals] for c in f.clauses] + extra
    )


@pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 14, 17, 20])
def test_unsat_table_matches_slice_reference(n):
    rng = np.random.default_rng(100 + n)
    for m in (0, 3 * n + 5) if n else (0,):
        f = _layered_formula(rng, n, m) if m else rs.CnfFormula(n=n, clauses=())
        base = rs.cnf._cost_base(f.m)
        for weights in ([1] * f.m, [base + i * i for i in range(1, f.m + 1)]):
            got, ref = oracle._unsat_table(f, weights), slice_unsat_table(f, weights)
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("total", [(1 << 24) - 1, 1 << 24, (1 << 24) + 1])
def test_unsat_table_precision_switch(total):
    # the failing ranks sum every weight; float32 would round 2**24 + 1 to 2**24
    weights = [1 << 18] * 63
    weights.append(total - sum(weights))
    f = rs.CnfFormula.from_signed(12, [[1, -7, 12]] * len(weights))
    got, ref = oracle._unsat_table(f, weights), slice_unsat_table(f, weights)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    assert int(got.max()) == total


def test_tables_built_once_per_formula(monkeypatch):
    builds = []
    build = oracle._unsat_table
    bincount = oracle._block_bincount

    def counting(f, weights):
        builds.append("h" if set(weights) == {1} else "d")
        return build(f, weights)

    def counting_levels(keys, size, weights=None):
        if weights is None:
            builds.append("counts")
        return bincount(keys, size, weights)

    monkeypatch.setattr(oracle, "_unsat_table", counting)
    monkeypatch.setattr(oracle, "_block_bincount", counting_levels)
    f = random_formula(np.random.default_rng(26), n=10, m=40)
    params, levels = rs.default_params(f), QuantileSet.default()
    angles = [AngleVector(betas=(0.2 * k, 0.5), gammas=(0.9, 0.4 * k)) for k in (1, 2)]
    enumerate_h(f)
    list_solutions(f)
    for a in angles:
        exact_h_distribution(f, a)
        exact_shaped_cost(f, a, params, levels)
    assert sorted(builds) == ["counts", "d", "h"]

    with pytest.raises(GuardError):
        enumerate_h(f, max_n=f.n - 1)
    for name in ("h", "counts", "d"):
        table = oracle._table(f, name, f.n)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0

    reparsed = rs.parse_dimacs(to_dimacs(f))
    assert reparsed == f and reparsed is not f
    enumerate_h(reparsed)
    assert sorted(builds) == ["counts", "counts", "d", "h", "h"]


def test_table_slot_follows_formula_lifetime():
    a = random_formula(np.random.default_rng(27), n=6, m=20)
    exact_shaped_cost(a, AngleVector.zeros(1), rs.default_params(a), QuantileSet.default())
    assert oracle._SLOT.formula() is a and sorted(oracle._SLOT.tables) == ["counts", "d", "h"]
    del a
    gc.collect()
    assert oracle._SLOT.formula is None and oracle._SLOT.tables == {}

    a = random_formula(np.random.default_rng(28), n=6, m=20)
    b = random_formula(np.random.default_rng(29), n=6, m=20)
    enumerate_h(a)
    enumerate_h(b)
    h_b = oracle._SLOT.tables["h"]
    del a
    gc.collect()
    assert oracle._SLOT.formula() is b and oracle._SLOT.tables["h"] is h_b


def test_exact_shaped_cost_memory_bound():
    # first-call tracemalloc peak per rank: 52.8 bytes for the float g table
    # and its np.unique, 38.9 for the integer keys with np.unique, 25.2 for
    # the packed (h, d) pair index, 16.8 for the h and d tables, 17.0 with the
    # ranks of all quantile h-levels sorted at once, 16.5 one h-level at a time
    f = random_formula(np.random.default_rng(5), n=18, m=77)
    angles = AngleVector(betas=(0.3, 0.7), gammas=(1.1, 2.3))
    params, levels = rs.default_params(f), QuantileSet.default()
    tracemalloc.start()
    try:
        exact_shaped_cost(f, angles, params, levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 21 * (1 << f.n)


@pytest.mark.parametrize("seed", range(3, 15))
def test_exact_shaped_cost_memory_bound_across_formulas(seed):
    # the peak follows the ranks at the quantile h-levels: sorting those of all
    # levels at once read up to 29.0 B/rank here (seed 6), one level at a time 21.3
    f = random_formula(np.random.default_rng(seed), n=18, m=77)
    angles = AngleVector(betas=(0.3, 0.7), gammas=(1.1, 2.3))
    tracemalloc.start()
    try:
        exact_shaped_cost(f, angles, rs.default_params(f), QuantileSet.default())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22 * (1 << f.n)
