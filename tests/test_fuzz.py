"""Seeded fuzz of the CLI's input paths: every malformed input ends in a documented exit code
with an ``error:`` line, never in a traceback.

The tests run a fixed, seeded subset of the mutations, about a second in all, so a failure
reproduces exactly; raise the counts locally to search further.
"""
import json
import random

import pytest

from ranksat.cli import main
from ranksat.evolve import GaConfig
from ranksat.harness import repro_hash, run_optimize, run_sample, save_artifact
from ranksat.qsim import AngleVector

from conftest import DATA

BAD_VALUES = [None, "x", 1.5, -1, 0, 10**20, [], {}, True, float("nan")]


def _leaves(obj, path=()):
    """The paths of every leaf of a JSON document, an empty list or object counting as one."""
    items = list(obj.items() if isinstance(obj, dict) else
                 enumerate(obj) if isinstance(obj, list) else ())
    if not items:
        yield path
    for key, value in items:
        yield from _leaves(value, (*path, key))


def _replaced(doc, path, value):
    """A deep copy of ``doc`` with the leaf at ``path`` set to ``value``, rehashed."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc["repro_hash"] = repro_hash(doc["run"])
    return doc


def _run(argv, capsys, allowed):
    code = main(argv)  # an exception here is the traceback the CLI must not show
    err = capsys.readouterr().err
    assert code in allowed, (argv, code, err)
    if code:
        assert err.startswith("error: "), (argv, err)
    return code, err


def test_artifact_fuzz(widget_path, tmp_path, capsys):
    cfg = GaConfig(generations=1, population=4, elites=1, shots_per_eval=16, seed=3)
    good = {"run": run_optimize(widget_path, cfg, final_shots=40),
            "sample": run_sample(widget_path, AngleVector.zeros(1), shots=40, seed=5)}
    for kind, artifact in good.items():
        save_artifact(artifact, str(tmp_path / f"{kind}.json"))
    cases = [(kind, path, value) for kind, artifact in good.items()
             for path in _leaves(artifact) if path != ("repro_hash",) for value in BAD_VALUES]
    bad = str(tmp_path / "bad.json")
    for kind, path, value in random.Random(36).sample(cases, 40):
        save_artifact(_replaced(good[kind], path, value), bad)
        for argv in (["report", bad], ["report", bad, "--what", "initial"],
                     ["report", bad, "--what", "history", "--format", "json"],
                     ["report", bad, "--g-level"],
                     ["compare", str(tmp_path / f"{kind}.json"), bad],
                     ["sample", widget_path, "--angles", bad, "--shots", "8"]):
            _run(argv, capsys, (0, 2))
        capsys.readouterr()


def _mutated(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one to three bytes replaced, deleted or inserted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        byte = rng.choice(b"0123456789- \n\tpc%.e{}[]\":,") if rng.random() < 0.8 else \
            rng.randrange(256)
        op = rng.choice(("replace", "delete", "insert"))
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


@pytest.mark.parametrize("suffix", [".cnf", ".json"])
def test_instance_fuzz(widget, tmp_path, capsys, suffix):
    if suffix == ".cnf":
        text = (DATA / "widget.cnf").read_bytes()
    else:
        text = json.dumps({"n": widget.n, "clauses": [
            {"lits": [lit.signed for lit in c.literals]} for c in widget.clauses]}).encode()
    rng, path = random.Random(36), tmp_path / f"instance{suffix}"
    for _ in range(60):
        path.write_bytes(_mutated(text, rng))
        for argv in (["validate", str(path)], ["enumerate", str(path), "--max-n", "12"]):
            code, err = _run(argv, capsys, (0, 1, 2))
            if code == 1:  # the one runtime error an instance can cause
                assert "resource guard" in err, err
