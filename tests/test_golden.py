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
from dense_reference import to_dimacs

SHORT = dict(generations=3, population=6, elites=1, shots_per_eval=60, seed=17)

WIDGET_HASH = "sha256:07792b628990b55c7092e0dfc1aa3fd518a70e247753d4605136c6a2f44c8db1"
SYNTH20_HASH = "sha256:d78748e63f2628d030c37a70c19ed4969d8c5ab04f156f792b958b0027399f8c"
# GA corners the depth-2 runs above never reach: depth 1 draws no crossover
# cut; depth 3 with no elites and k=1 widens the cut range and keeps no row
WIDGET_D1_HASH = "sha256:495d62f61dac8ce1a019d59038348037e5ef02cb0733b53fb83b1a880148a520"
SYNTH20_D3_HASH = "sha256:970c71f18f452693eedbac7403311a5338ae3d640d5cf87102e40789750f28c0"
SHAPED17 = 3190375.19779253
# sha256 of values.tobytes() + mass.tobytes() of the same exact g-distribution
G17_DIGEST = "036b9962708e07658a9614315b08498368e77caca95b24a47fa90b8728b750e0"


def test_golden_widget_run(tmp_path, monkeypatch):
    shutil.copy(DATA / "widget.cnf", tmp_path / "widget.cnf")
    monkeypatch.chdir(tmp_path)
    art = run_optimize("widget.cnf", GaConfig(**SHORT), final_shots=5000)
    assert art["repro_hash"] == WIDGET_HASH


def test_golden_synthetic_n20_run(tmp_path, monkeypatch):
    f = random_formula(np.random.default_rng(0), n=20, m=91)
    (tmp_path / "synth20.cnf").write_text(to_dimacs(f))
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
    (tmp_path / "synth20.cnf").write_text(to_dimacs(f))
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
        "b29abb2005f767eec746228f7e34b4e92ef1efb19cc8c7cece5e33b0f6042768",
    "report --what final --format json":
        "7e69f90b863395e1da316c0141a1320de4c83ae9f897f9e967de313f4e153014",
    "report --what initial":
        "f3a1392a934078ce30addaaa390a55a8e6f3f311d1d25c6bd6cf39e67c4e43e8",
    "report --what initial --format json":
        "f9c00b66fdd280c21bdcb86d4d9fd79cad887783761515ff7f19a8b349d3a4d2",
    "report --what final --g-level":
        "f34434cd2a0ce71c8200bb061a120d3f096035925db105fd6920b5e52c3ee412",
    "report --what final --g-level --format json":
        "16705dfb917a91d2e577b8e965041618eabffafea5a3ccf7bf9bfec3bf370a8f",
    "sample":
        "e452135b6b2d83bea9ee6eb8fc95563bea60ed17b06104d5d0b827441fdd62b5",
    "compare":
        "722248a7727e112543d978c8736c53e8193166469d7a449d5851b9575c552d3c",
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
