"""Golden pins: exact run bytes and an exact oracle value.

A refactor that claims to keep behaviour must pass these unchanged. A change
that alters results on purpose re-baselines the pins and says so in
CHANGES.md. Instances are copied into a temporary directory and run by a
relative path, because the hashed ``instance.path`` is the path as given.
"""
import hashlib
import shutil

import numpy as np

import ranksat as rs
from ranksat.evolve import GaConfig
from ranksat.harness import run_optimize
from ranksat.oracle import exact_g_distribution, exact_shaped_cost
from ranksat.qsim import AngleVector
from ranksat.shaping import QuantileSet

from conftest import DATA, random_formula

SHORT = dict(generations=3, population=6, elites=1, shots_per_eval=60, seed=17)

WIDGET_HASH = "sha256:84db42a52368f73574f3244f2733a1eef36fe5d19ed290d631ac764781fb733e"
SYNTH20_HASH = "sha256:49a31c419fedb40fd00f046c6bc9e119d681d2a2473219099ecd8a9c8a66be84"
# GA corners the depth-2 runs above never reach: depth 1 draws no crossover
# cut; depth 3 with no elites and k=1 widens the cut range and keeps no row
WIDGET_D1_HASH = "sha256:58115fd27e9323de7cd607d9a87111fa09571545440db3ce8029b32add1e9e85"
SYNTH20_D3_HASH = "sha256:489fc109106849d9d5f1c6f623b3e67f297f7af1640aa3686aa63352b5c9e49c"
SHAPED17 = 3190375.1977925296
# sha256 of values.tobytes() + mass.tobytes() of the same exact g-distribution
G17_DIGEST = "9c0682974b4b2bfffb3e98bf1d0fc2417ed2b590303e6071a09306bfec18c036"


def test_golden_widget_run(tmp_path, monkeypatch):
    shutil.copy(DATA / "widget.cnf", tmp_path / "widget.cnf")
    monkeypatch.chdir(tmp_path)
    art = run_optimize("widget.cnf", GaConfig(**SHORT), final_shots=5000)
    assert art["repro_hash"] == WIDGET_HASH


def test_golden_synthetic_n20_run(tmp_path, monkeypatch):
    f = random_formula(np.random.default_rng(0), n=20, m=91)
    (tmp_path / "synth20.cnf").write_text(rs.to_dimacs(f))
    monkeypatch.chdir(tmp_path)
    art = run_optimize("synth20.cnf", GaConfig(**SHORT), final_shots=5000)
    assert art["run"]["oracle"] is not None
    assert art["repro_hash"] == SYNTH20_HASH


def test_golden_widget_depth1_run(tmp_path, monkeypatch):
    shutil.copy(DATA / "widget.cnf", tmp_path / "widget.cnf")
    monkeypatch.chdir(tmp_path)
    cfg = GaConfig(**{**SHORT, "depth": 1})
    art = run_optimize("widget.cnf", cfg, final_shots=5000)
    assert art["repro_hash"] == WIDGET_D1_HASH


def test_golden_synthetic_n20_depth3_no_elites_run(tmp_path, monkeypatch):
    f = random_formula(np.random.default_rng(0), n=20, m=91)
    (tmp_path / "synth20.cnf").write_text(rs.to_dimacs(f))
    monkeypatch.chdir(tmp_path)
    cfg = GaConfig(**{**SHORT, "depth": 3, "elites": 0, "tournament_size": 1})
    art = run_optimize("synth20.cnf", cfg, final_shots=5000)
    assert art["repro_hash"] == SYNTH20_D3_HASH


def test_golden_exact_shaped_cost_multichunk():
    # n=17 spans two 2**16-rank summation blocks, so the block-order merge is pinned too
    f = random_formula(np.random.default_rng(3), n=17, m=72)
    angles = AngleVector(betas=(0.3, 0.7), gammas=(1.1, 2.3))
    params = rs.default_params(f)
    assert exact_shaped_cost(f, angles, params, QuantileSet.default()) == SHAPED17
    # the shaped cost can absorb last-bit drift in single masses; the digest cannot
    values, mass = exact_g_distribution(f, angles)
    assert hashlib.sha256(values.tobytes() + mass.tobytes()).hexdigest() == G17_DIGEST
