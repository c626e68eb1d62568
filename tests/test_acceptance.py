"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria that need the
SATLIB uf20-91 benchmark set skip with instructions when the instances are
not on disk (place the uf20-91 `.cnf` files in `data/uf20-91/`,
`tests/data/uf20-91/` or `$RANKSAT_SATLIB_DIR`).
"""
import statistics
import time

import numpy as np

import ranksat as rs
from ranksat.cli import main
from ranksat.evolve import GaConfig, final_sample_stream, optimize
from ranksat.harness import load_artifact, canonical_json
from ranksat.oracle import enumerate_h, exact_shaped_cost, list_solutions
from ranksat.qsim import AngleVector, bits_from_ranks, prepare_state, sample
from ranksat.shaping import (
    CostHistogram,
    QuantileSet,
    cost_histogram,
    h_histogram,
    shaped_cost,
)

from conftest import load_count_csv, load_percent_csv, satlib_instance
from dense_reference import dense_state, quantile

UF20_DOMAIN = 2**20


def _passed(cid: str, text: str) -> None:
    print(f"[{cid}] {text}: PASS")


def _product_probabilities(p1: np.ndarray, bits: np.ndarray) -> np.ndarray:
    return np.where(bits == 1, p1, 1.0 - p1).prod(axis=1)


def _final_p_h0(f: rs.CnfFormula, seed: int, cfg: GaConfig) -> tuple[float, float]:
    """(P(h=0), e_0.1) of the 100k-shot sample after one GA run."""
    best, _ = optimize(f, cfg)
    shots = sample(prepare_state(f.n, best), 100_000, final_sample_stream(seed))
    hist = h_histogram(f, shots)
    p0 = float(hist.counts[0] / hist.total) if hist.values[0] == 0 else 0.0
    return p0, quantile(hist, 0.1)


def test_c01_widget_initial_distribution_exact(widget):
    enumerate_h(widget)  # warm up numpy dispatch before timing
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        table = enumerate_h(widget)
        best = min(best, time.perf_counter() - t0)
    assert table.values.tolist() == [0, 1, 2]
    assert table.counts.tolist() == [4, 16, 12]
    assert table.probabilities.tolist() == [0.125, 0.5, 0.375]
    assert table.total == 32
    assert best < 1e-3, f"enumeration took {best * 1e3:.3f} ms"
    _passed("C1", "widget exact initial h-distribution {0:4, 1:16, 2:12} in < 1 ms")


def test_c02_uf20_01_initial_distribution_exact():
    path = satlib_instance("uf20-01.cnf")
    f = rs.parse_dimacs_file(str(path))
    assert (f.n, f.m) == (20, 91)
    expected = dict(load_count_csv("uf20_01_initial_h.csv"))
    assert sum(expected.values()) == UF20_DOMAIN
    start = time.perf_counter()
    table = enumerate_h(f)
    elapsed = time.perf_counter() - start
    got = {int(h): int(c) for h, c in zip(table.values, table.counts)}
    assert got == expected
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f} s"
    _passed("C2", "uf20-01 exact initial h-distribution matches all 30 reference counts")


def test_c03_widget_solution_count(widget):
    sols = list_solutions(widget)
    assert len(sols) == 4
    assert sorted(map(tuple, sols)) == [
        (1, 1, 1, 0, 0), (1, 1, 1, 0, 1), (1, 1, 1, 1, 0), (1, 1, 1, 1, 1),
    ]
    _passed("C3", "widget instance has exactly 4 satisfying assignments")


def test_c03_uf20_01_solution_count():
    path = satlib_instance("uf20-01.cnf")
    f = rs.parse_dimacs_file(str(path))
    sols = list_solutions(f)
    assert len(sols) == 8
    known = [0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1]
    assert known in sols
    _passed("C3", "uf20-01 has exactly 8 satisfying assignments incl. the known one")


def test_c04_quantile_fixtures():
    hist_01 = CostHistogram.from_pairs(load_count_csv("uf20_01_initial_h.csv"))
    assert quantile(hist_01, 0.1) == 7.0
    pairs_02 = [(h, round(pct * 1000)) for h, pct in load_percent_csv("uf20_02_initial_h.csv")]
    hist_02 = CostHistogram.from_pairs(pairs_02)
    assert quantile(hist_02, 0.5) == 11.0
    _passed("C4", "reference decile e_0.1 = 7 (uf20-01) and median e_0.5 = 11 (uf20-02)")


def test_c05_simulator_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        depth = int(rng.integers(1, 4))
        betas = tuple(rng.uniform(0, np.pi, depth))
        gammas = tuple(rng.uniform(0, 2 * np.pi, depth))
        p1 = prepare_state(n, AngleVector(betas, gammas))
        bits = bits_from_ranks(np.arange(1 << n), n)
        product = _product_probabilities(p1, bits)
        dense = np.abs(dense_state(n, betas, gammas)) ** 2
        worst = max(worst, float(np.abs(product - dense).max()))
    assert worst < 1e-12, f"max probability deviation {worst:.3e}"

    for n in range(1, 11):
        for gamma in (0.5, 1.7, 4.4):
            p1 = prepare_state(n, AngleVector(betas=(0.0,), gammas=(gamma,)))
            assert np.all(p1 == 0.5)
            bits = bits_from_ranks(np.arange(1 << n), n)
            product = _product_probabilities(p1, bits)
            expected = 2 ** (-n / 2) * np.exp(-1j * gamma * np.arange(1 << n))
            assert float(np.abs(product - np.abs(expected) ** 2).max()) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _passed("C5", "200 product-vs-dense cases < 1e-12 and rank-phase eigenstructure n <= 10")


def test_c06_sampler_fidelity_chi_square(widget):
    from scipy import stats

    start = time.perf_counter()
    state = prepare_state(widget.n, AngleVector.zeros(2))
    shots = sample(state, 100_000, np.random.default_rng(99))
    hist = h_histogram(widget, shots)
    observed = {int(v): int(c) for v, c in zip(hist.values, hist.counts)}
    obs = np.array([observed.get(h, 0) for h in (0, 1, 2)])
    expected = np.array([0.125, 0.5, 0.375]) * len(shots)
    _, pvalue = stats.chisquare(obs, expected)
    elapsed = time.perf_counter() - start
    assert pvalue > 6.33e-5, f"chi-square p-value {pvalue:.2e} below the 4-sigma level"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _passed("C6", "100k-shot histogram consistent with (12.5%, 50%, 37.5%) at 4 sigma")


def test_c07a_widget_optimization_efficacy(widget):
    p0s = []
    for seed in (1, 2, 3, 4, 5):
        p0, _ = _final_p_h0(widget, seed, GaConfig(seed=seed))
        p0s.append(p0)
    med = statistics.median(p0s)
    assert med >= 0.5, f"median final P(h=0) = {med:.4f} < 0.5 over seeds 1..5"
    _passed("C7a", f"widget median final P(h=0) = {med:.3f} >= 0.5 over 5 seeds")


def test_c07b_uf20_01_optimization_efficacy():
    path = satlib_instance("uf20-01.cnf")
    f = rs.parse_dimacs_file(str(path))
    baseline = 8 / UF20_DOMAIN  # 0.000763%
    results = [_final_p_h0(f, seed, GaConfig(seed=seed)) for seed in (1, 2, 3)]
    med_p0 = statistics.median([p for p, _ in results])
    med_decile = statistics.median([e for _, e in results])
    assert med_p0 >= 20 * baseline, (
        f"median P(h=0) = {med_p0:.6%} below 20x the uniform baseline {baseline:.6%}"
    )
    assert med_decile <= 4, f"median final e_0.1 = {med_decile} > 4"
    _passed(
        "C7b",
        f"uf20-01 median gain {med_p0 / baseline:.0f}x >= 20x and e_0.1 = {med_decile} <= 4",
    )


def _mass_at_most_2(f, seed, levels):
    cfg = GaConfig(generations=500, seed=seed, quantile_levels=levels)
    best, _ = optimize(f, cfg)
    shots = sample(prepare_state(f.n, best), 100_000, final_sample_stream(seed))
    hist = h_histogram(f, shots)
    return float(hist.counts[hist.values <= 2].sum() / hist.total)


def test_c08_quantile_set_sensitivity():
    path = satlib_instance("uf20-04.cnf")
    f = rs.parse_dimacs_file(str(path))
    e1 = QuantileSet.of([0.01, 0.06])
    e4 = QuantileSet.of([0.01, 0.06, 0.11, 0.16, 0.21, 0.26, 0.32])
    seeds = (1, 2, 3)
    mass_e1 = statistics.median([_mass_at_most_2(f, s, e1) for s in seeds])
    mass_e4 = statistics.median([_mass_at_most_2(f, s, e4) for s in seeds])
    assert mass_e4 > mass_e1, (
        f"E4 mass at h<=2 ({mass_e4:.4f}) not above E1 ({mass_e1:.4f})"
    )
    _passed("C8", f"uf20-04 mass at h<=2: E4 {mass_e4:.3f} > E1 {mass_e1:.3f} (500 generations)")


def test_c09_artifact_determinism(widget_path, tmp_path):
    argv_base = [
        "optimize", widget_path, "--generations", "5", "--population", "8",
        "--elites", "2", "--shots", "100", "--final-shots", "5000", "--seed", "31",
    ]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(argv_base + ["--out", str(out_a)]) == 0
    assert main(argv_base + ["--out", str(out_b)]) == 0
    art_a = load_artifact(str(out_a))
    art_b = load_artifact(str(out_b))
    assert art_a["repro_hash"] == art_b["repro_hash"]
    assert canonical_json(art_a["run"]).encode() == canonical_json(art_b["run"]).encode()
    _passed("C9", "back-to-back optimize runs yield byte-identical hashed run sections")


def test_c10_estimator_consistency(widget):
    params = rs.default_params(widget)
    levels = QuantileSet.default()
    cases = [
        AngleVector.zeros(2),
        AngleVector(betas=(0.7, 0.3), gammas=(1.1, 2.0)),
    ]
    start = time.perf_counter()
    for angles in cases:
        exact = exact_shaped_cost(widget, angles, params, levels)
        state = prepare_state(widget.n, angles)
        for seed in range(1, 11):
            shots = sample(state, 100_000, np.random.default_rng(seed))
            sampled = shaped_cost(cost_histogram(widget, shots, params), levels)
            rel = abs(sampled - exact) / exact
            assert rel < 0.02, (
                f"seed {seed}: sampled {sampled:.4f} vs exact {exact:.4f} "
                f"({rel:.2%} relative error)"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _passed("C10", "100k-shot shaped cost within 2% of the exact value for 10 seeds")
