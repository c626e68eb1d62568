"""Golden pins: exact run bytes, an exact oracle value and the CLI's table output.

A refactor that claims to keep behaviour must pass these unchanged. A change
that alters results on purpose re-baselines the pins and says so in
CHANGES.md. Instances are copied into a temporary directory and run by a
relative path, because the hashed ``instance.path`` is the path as given.
"""
import hashlib
import shutil

import numpy as np

import ranksat as rs
from ranksat.cli import main
from ranksat.evolve import GaConfig
from ranksat.harness import run_optimize, save_artifact
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


# sha256 of the stdout of each CLI call on the widget run above (WIDGET_HASH)
# and of a 3000-shot sample of its best angles, which "compare" reads
CLI_PINS = {
    "enumerate":
        "f3a1392a934078ce30addaaa390a55a8e6f3f311d1d25c6bd6cf39e67c4e43e8",
    "enumerate --format json":
        "f9c00b66fdd280c21bdcb86d4d9fd79cad887783761515ff7f19a8b349d3a4d2",
    "report --what final":
        "a89db58991d8182ffa31ab617ad2a0eaa970423c684aca5c6d245504adf2183e",
    "report --what final --format json":
        "697c5443dd5dd36660ce4669075c351ba53349281b03ad841357d335d1cb1afc",
    "report --what initial":
        "f3a1392a934078ce30addaaa390a55a8e6f3f311d1d25c6bd6cf39e67c4e43e8",
    "report --what initial --format json":
        "f9c00b66fdd280c21bdcb86d4d9fd79cad887783761515ff7f19a8b349d3a4d2",
    "report --what final --g-level":
        "c4f28802ce043e4aa9bac98dddf791a086d6a3397e956a45fb501940ef6b684f",
    "report --what final --g-level --format json":
        "53aa77ce0ba19adb525e02428736dbafd570a32229feecfc686e042e5f3315f9",
    "sample":
        "abaf1f2a6fad2788362a0abf91a5486ba618dbb68cac2202c9e17e871f92c128",
    "compare":
        "ba8a1dbba804f3bb6c2406c0bb1aafb33cf9976779f6ea29fd8490f22a2419c9",
}


def test_golden_cli_tables(tmp_path, monkeypatch, capsys):
    shutil.copy(DATA / "widget.cnf", tmp_path / "widget.cnf")
    monkeypatch.chdir(tmp_path)
    save_artifact(run_optimize("widget.cnf", GaConfig(**SHORT), final_shots=5000), "run.json")
    calls = {
        "sample": ["sample", "widget.cnf", "--angles", "run.json", "--shots", "3000",
                   "--seed", "5", "--out", "sample.json"],
        "compare": ["compare", "run.json", "sample.json"],
    }
    digests = {}
    for key in CLI_PINS:
        verb, *flags = key.split()
        target = "widget.cnf" if verb == "enumerate" else "run.json"
        argv = calls.get(key) or [verb, target, *flags]
        assert main(argv) == 0
        digests[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == CLI_PINS
