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

WIDGET_HASH = "sha256:c4599e491aec4808ed840662b3017781737d83f3824d364c9a4f503a0f385c8d"
SYNTH20_HASH = "sha256:5e2d4b94278eb447e48bfef15288a7d8864d9ded4a188f320862844a367e2215"
# GA corners the depth-2 runs above never reach: depth 1 draws no crossover
# cut; depth 3 with no elites and k=1 widens the cut range and keeps no row
WIDGET_D1_HASH = "sha256:ee020012e249e0881130c4ca39e1497457f49571d99d20f7ae1166e9714a5cbe"
SYNTH20_D3_HASH = "sha256:d261e3fe554edab5bc903cac1bedc8f44c4e9557f5ecc0867dd3b2ca99f54daa"
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
        "f98220b001588e9b72fdff4afd1013066839daa4c1df2ce8c6abdb98ef800854",
    "report --what final --format json":
        "825a9623acebea2b8bd26267635d60c6e16ac5225641de717195ccd6821ba6f9",
    "report --what initial":
        "f3a1392a934078ce30addaaa390a55a8e6f3f311d1d25c6bd6cf39e67c4e43e8",
    "report --what initial --format json":
        "f9c00b66fdd280c21bdcb86d4d9fd79cad887783761515ff7f19a8b349d3a4d2",
    "report --what final --g-level":
        "5736221d634e4776915c6e38182bda968b8f04385384032b92ba5ddaf05fe823",
    "report --what final --g-level --format json":
        "8f176dc0994fa4d2d4577547b9d0f8281d86901cc272d42545087c9d2666fc5b",
    "sample":
        "bf34d555a311eea95865ba1adc9230c0696ee3b6b41900532cec6e58f24e6d63",
    "compare":
        "e8a30427278b89d33f0ea93a0c723ed3f594a719dcfdd6ec971ecd6109c87144",
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
