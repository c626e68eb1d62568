import math

import numpy as np
import pytest

import ranksat as rs
from ranksat.evolve import (
    _TAG_EVOLVE,
    _TAG_FITNESS,
    _TAG_INIT,
    GaConfig,
    _fitness_values,
    crossover,
    evaluate_fitness,
    mutate,
    optimize,
    seed_stream,
    tournament_select,
)
from ranksat.qsim import AngleVector, draw_planes, p_one_rows, prepare_state, sample
from ranksat.shaping import QuantileSet, cost_histogram, shaped_cost

from conftest import random_formula, scored
from dense_reference import block_shots, divergence


def _row(betas, gammas):
    return np.array([*betas, *gammas], dtype=np.float64)


class _FixedInts:
    """rng stub whose integers() returns the given cut points, shaped as asked."""

    def __init__(self, values):
        self.values = values
        self.calls = []

    def integers(self, low, high, size=None):
        self.calls.append((low, high, size))
        return np.reshape(self.values, size)


def test_evaluate_fitness_perfect_state():
    f = rs.CnfFormula.from_signed(1, [[1]])
    angles = AngleVector(betas=(math.pi / 4,), gammas=(math.pi / 2,))
    cfg = GaConfig(depth=1)
    fit = evaluate_fitness(f, angles, cfg, seed_stream(1, 9))
    assert fit == 0.0


def test_evaluate_fitness_uniform_matches_oracle(widget):
    cfg = GaConfig(shots_per_eval=100_000, quantile_levels=QuantileSet.of([0.5]))
    fit = evaluate_fitness(widget, AngleVector.zeros(2), cfg, seed_stream(7, 9))
    exact = rs.exact_shaped_cost(
        widget, AngleVector.zeros(2), rs.default_params(widget), QuantileSet.of([0.5])
    )
    assert -fit == pytest.approx(exact, rel=0.02)


def test_evaluate_fitness_deterministic(widget):
    cfg = GaConfig()
    angles = AngleVector(betas=(0.3, 0.8), gammas=(1.0, 2.0))
    a = evaluate_fitness(widget, angles, cfg, seed_stream(5, 1, 2))
    b = evaluate_fitness(widget, angles, cfg, seed_stream(5, 1, 2))
    assert a == b


def _histogram_fitness(f, bits, cfg):
    """One evaluation of the given shots through the histogram path."""
    hist = cost_histogram(f, bits, rs.default_params(f))
    return -shaped_cost(hist, cfg.quantile_levels)


def _random_genes(rng, size, depth):
    betas = rng.uniform(0, math.pi, (size, depth))
    return np.hstack([betas, rng.uniform(0, 2 * math.pi, (size, depth))])


# every assignment leaves exactly one clause unsatisfied: h ties at 1, d is 1 or 4
TIED = rs.CnfFormula.from_signed(2, [[1], [-1]])


@pytest.mark.parametrize(
    "case,size,shots,levels",
    [
        ("widget", 8, 250, QuantileSet.default()),
        ("n20", 30, 250, QuantileSet.default()),  # 7500 rows: one h slice, and d's slices
        ("n20", 5, 97, QuantileSet.of([0.01, 0.06, 0.11, 0.16, 0.21, 0.26, 0.32])),
        ("n200", 6, 250, QuantileSet.default()),  # 1500 rows; d slices of 152
        ("n200", 1, 250, QuantileSet.default()),
        ("single", 12, 20, QuantileSet.default()),
        ("tied", 6, 250, QuantileSet.default()),
    ],
)
def test_batched_fitness_equals_histogram_path(widget, case, size, shots, levels):
    rng = np.random.default_rng(size * shots)
    f = {
        "widget": widget,
        "n20": random_formula(np.random.default_rng(0), n=20, m=91),
        "single": random_formula(np.random.default_rng(0), n=20, m=91),
        "n200": random_formula(np.random.default_rng(1), n=200, m=852),
        "tied": TIED,
    }[case]
    cfg = GaConfig(shots_per_eval=shots, quantile_levels=levels, seed=int(rng.integers(1 << 30)))
    # as in optimize: one pass over the rows after the elites
    genes = _random_genes(rng, size, cfg.depth)[size // 3:]
    fitness = _fitness_values(f, genes, cfg, seed_stream(cfg.seed, _TAG_FITNESS, 4))
    # the same shots: one block from the same stream, row i reading its own s shots
    p_one = p_one_rows(f.n, genes[:, :cfg.depth], genes[:, cfg.depth:])
    bits = block_shots(p_one, shots, seed_stream(cfg.seed, _TAG_FITNESS, 4))
    rows = bits.reshape(len(genes), shots, f.n)
    assert fitness == [_histogram_fitness(f, row, cfg) for row in rows]
    h = np.sort(scored(f, bits)[0].reshape(len(genes), shots), axis=1)
    if case == "single":  # some quantile's h-level holds one shot of its row
        assert any(np.count_nonzero(row == row[0]) == 1 for row in h)
    if case == "tied":
        assert np.all(h == 1)
    row = genes[-1].tolist()
    angles = AngleVector(betas=tuple(row[:cfg.depth]), gammas=tuple(row[cfg.depth:]))
    single = evaluate_fitness(f, angles, cfg, seed_stream(3, 1))
    shots_one = sample(prepare_state(f.n, angles), shots, seed_stream(3, 1))
    assert single == _histogram_fitness(f, shots_one, cfg)


def test_fitness_reads_d_of_the_chosen_shots_from_the_generation_block(monkeypatch):
    # the d of the shots at the quantile h-levels comes from the generation's one unsat
    # block, and equals the scalar divergence of those shots' bits
    f = random_formula(np.random.default_rng(1), n=30, m=128)
    cfg = GaConfig(shots_per_eval=97)
    genes = _random_genes(np.random.default_rng(2), 5, cfg.depth)
    asked = []

    def recorded(h, d_sums, zeta, d_at, levels):
        def d_seen(idx):
            asked.append((idx, d_at(idx)))
            return asked[-1][1]
        return rs.shaping.level_shaped_costs(h, d_sums, zeta, d_seen, levels)

    monkeypatch.setattr(rs.evolve, "level_shaped_costs", recorded)
    _fitness_values(f, genes, cfg, seed_stream(4, 4))
    p_one = p_one_rows(f.n, genes[:, :cfg.depth], genes[:, cfg.depth:])
    bits = block_shots(p_one, cfg.shots_per_eval, seed_stream(4, 4))
    [(idx, d)] = asked
    assert 0 < len(idx) < len(bits) and d.dtype == np.float64
    assert d.tolist() == [divergence(f, bits[i].tolist()) for i in idx.tolist()]


def test_zero_clause_fitness_has_no_negative_zero():
    # every cost is 0, and the fitness -cost once stored -0.0
    f = rs.CnfFormula(n=3, clauses=())
    _, rows = optimize(f, GaConfig(generations=1, population=4, elites=1, shots_per_eval=16))
    values = [row[key] for row in rows for key in ("best_fitness", "mean_fitness",
                                                   "best_so_far_fitness")]
    assert values == [0.0] * 6
    assert all(math.copysign(1.0, v) == 1.0 for v in values)


def test_optimize_hot_path_draws_one_stream_and_one_sample_per_generation(widget, monkeypatch):
    # no per-row streams: one fitness stream and one draw_planes call per generation, each
    # for all of the generation's new rows
    streams, drawn = [], []

    def counted_stream(seed, *path):
        streams.append(path)
        return seed_stream(seed, *path)

    def counted_draw(p1, count, rng):
        drawn.append(len(p1))
        return draw_planes(p1, count, rng)

    monkeypatch.setattr(rs.evolve, "seed_stream", counted_stream)
    monkeypatch.setattr(rs.evolve, "draw_planes", counted_draw)
    cfg = GaConfig(generations=4, population=6, elites=2, shots_per_eval=50, seed=2)
    optimize(widget, cfg)
    breeding = [path for t in range(1, 5) for path in ((_TAG_EVOLVE, t), (_TAG_FITNESS, t))]
    assert streams == [(_TAG_INIT,), (_TAG_FITNESS, 0)] + breeding
    assert drawn == [6, 4, 4, 4, 4]


def test_tournament_tie_break_lowest_index():
    # rows are best first, so of rows 0 and 1 tied at the top, row 0 wins
    winners = tournament_select(3, k=50, count=100, rng=np.random.default_rng(0))
    assert winners.tolist() == [0] * 100


def test_tournament_k_large_returns_global_best():
    winners = tournament_select(8, k=64, count=20, rng=np.random.default_rng(1))
    assert winners.tolist() == [0] * 20


def test_tournament_k1_is_uniform():
    winners = tournament_select(4, k=1, count=4000, rng=np.random.default_rng(2))
    hits = np.bincount(winners, minlength=4)
    np.testing.assert_allclose(hits / 4000, 0.25, atol=0.03)


def test_tournament_rank_distribution_chi_square():
    from scipy import stats

    # the winner's rank r is the minimum of k uniform draws from P rows:
    # P(r) = ((P - r)^k - (P - r - 1)^k) / P^k
    size, k, count = 9, 3, 40_000
    winners = tournament_select(size, k, count, np.random.default_rng(12))
    observed = np.bincount(winners, minlength=size)
    r = np.arange(size)
    expected = ((size - r) ** k - (size - r - 1) ** k) / size**k * count
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 6.33e-5  # 4-sigma two-sided


def test_tournament_empty_population():
    with pytest.raises(ValueError):
        tournament_select(0, 1, 5, np.random.default_rng(0))


def test_crossover_identical_parents():
    a = np.array([_row((0.3, 0.4), (1.0, 2.0)), _row((0.5, 0.6), (1.5, 2.5))])
    child = crossover(a, a, np.random.default_rng(3))
    assert child.tobytes() == a.tobytes()
    assert child is not a


def test_crossover_cut_semantics():
    a = np.array([_row((0.1, 0.2), (0.3, 0.4))] * 3)
    b = np.array([_row((0.5, 0.6), (0.7, 0.8))] * 3)
    rng = _FixedInts([1, 2, 3])
    child = crossover(a, b, rng)
    assert rng.calls == [(1, 4, (3, 1))]  # one cut in 1..3 per child
    assert child.tolist() == [
        [0.1, 0.6, 0.7, 0.8],
        [0.1, 0.2, 0.7, 0.8],
        [0.1, 0.2, 0.3, 0.8],
    ]


def test_crossover_depth1_cut_is_one():
    a = np.array([_row((0.1,), (0.3,)), _row((0.2,), (0.4,))])
    b = np.array([_row((0.5,), (0.7,)), _row((0.6,), (0.8,))])
    rng = _FixedInts([])
    child = crossover(a, b, rng)
    assert rng.calls == []  # two genes leave one cut point: nothing is drawn
    assert child.tolist() == [[0.1, 0.7], [0.2, 0.8]]


def test_crossover_rejects_unequal_rows():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        crossover(np.zeros((2, 2)), np.zeros((2, 4)), rng)
    with pytest.raises(ValueError):
        crossover(np.zeros((2, 4)), np.zeros((3, 4)), rng)


def test_crossover_keeps_bounds():
    rng = np.random.default_rng(5)
    a, b = _random_genes(rng, 20, 2), _random_genes(rng, 20, 2)
    child = crossover(a, b, rng)
    assert child.shape == (20, 4)
    assert np.all((0 <= child[:, :2]) & (child[:, :2] < math.pi))
    assert np.all((0 <= child[:, 2:]) & (child[:, 2:] < 2 * math.pi))


def test_mutate_prob_zero_and_one():
    rng = np.random.default_rng(6)
    genes = np.array([_row((0.3, 0.4), (1.0, 2.0))] * 5)
    same = mutate(genes, 0.0, rng)
    assert same.tobytes() == genes.tobytes()
    changed = mutate(genes, 1.0, rng)
    assert np.all(changed != genes)
    assert np.all((0 <= changed[:, :2]) & (changed[:, :2] < math.pi))
    assert np.all((0 <= changed[:, 2:]) & (changed[:, 2:] < 2 * math.pi))
    assert genes.tolist() == [[0.3, 0.4, 1.0, 2.0]] * 5  # the input rows are not written


def test_mutate_fraction_matches_probability():
    trials = 2500
    genes = np.full((trials, 4), 0.5)
    flipped = np.count_nonzero(mutate(genes, 0.25, np.random.default_rng(7)) != genes)
    assert flipped / (4 * trials) == pytest.approx(0.25, abs=0.02)


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(elites=30, population=30)
    with pytest.raises(ValueError):
        GaConfig(tournament_size=31, population=30)
    with pytest.raises(ValueError):
        GaConfig(tournament_size=0)
    with pytest.raises(ValueError):
        GaConfig(mutation_prob=1.5)
    with pytest.raises(ValueError):
        GaConfig(generations=-1)
    with pytest.raises(ValueError):
        GaConfig(depth=0)


def test_optimize_zero_generations(widget):
    cfg = GaConfig(generations=0, population=6, shots_per_eval=50, seed=3)
    best, rows = optimize(widget, cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row["generation"] == 0
    assert row["best_so_far_angles"] == best.to_json_obj()
    assert row["best_fitness"] == row["best_so_far_fitness"]


def test_optimize_deterministic(widget):
    cfg = GaConfig(generations=6, population=8, shots_per_eval=60, seed=21)
    best_a, rows_a = optimize(widget, cfg)
    best_b, rows_b = optimize(widget, cfg)
    assert best_a == best_b
    assert rows_a == rows_b


def test_optimize_seed_changes_run(widget):
    cfg_a = GaConfig(generations=3, population=6, shots_per_eval=50, seed=1)
    cfg_b = GaConfig(generations=3, population=6, shots_per_eval=50, seed=2)
    assert optimize(widget, cfg_a)[0] != optimize(widget, cfg_b)[0]


def test_optimize_monotone_best_so_far(widget):
    cfg = GaConfig(generations=15, population=8, elites=2, shots_per_eval=60, seed=5)
    _, rows = optimize(widget, cfg)
    assert [r["generation"] for r in rows] == list(range(16))
    fits = [r["best_so_far_fitness"] for r in rows]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    # elites carry cached fitness, so the per-generation best never regresses
    bests = [r["best_fitness"] for r in rows]
    assert all(b >= a for a, b in zip(bests, bests[1:]))


def test_optimize_records_match_angles(widget):
    cfg = GaConfig(generations=4, population=6, shots_per_eval=50, seed=8)
    best, rows = optimize(widget, cfg)
    assert rows[-1]["best_so_far_angles"] == best.to_json_obj()
    assert all(len(r["best_so_far_angles"]) == cfg.depth for r in rows)


def test_optimize_elite_stays_ahead_of_tied_children(widget, monkeypatch):
    # Generation 0 scores [-3, -1, -2, -4], so its row 1 becomes the elite;
    # every child after that ties it at -1. Tournaments always pick row 0 and
    # mutation replaces every gene, so the parents of each generation show
    # which row led the previous one: the elite, ahead of its tied children.
    scored, parents = [], []

    def fake_fitness(f, genes, cfg, rng):
        scored.append(genes.copy())
        return [-3.0, -1.0, -2.0, -4.0] if len(scored) == 1 else [-1.0] * len(genes)

    def spy_crossover(a, b, rng):
        parents.append(a.copy())
        return crossover(a, b, rng)

    def first_row(size, k, count, rng):
        return np.zeros(count, dtype=int)

    monkeypatch.setattr(rs.evolve, "_fitness_values", fake_fitness)
    monkeypatch.setattr(rs.evolve, "tournament_select", first_row)
    monkeypatch.setattr(rs.evolve, "crossover", spy_crossover)
    cfg = GaConfig(generations=3, population=4, elites=1, mutation_prob=1.0, seed=4)
    best, rows = optimize(widget, cfg)
    elite = scored[0][1]
    assert len(parents) == 3
    assert all(np.array_equal(p, np.tile(elite, (3, 1))) for p in parents)
    assert all(not np.any(np.all(rows == elite, axis=1)) for rows in scored[1:])
    assert best == AngleVector(betas=tuple(elite[:2]), gammas=tuple(elite[2:]))
    assert [r["best_fitness"] for r in rows] == [-1.0] * 4
