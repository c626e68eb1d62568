import hashlib
import json
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ranksat as rs
from ranksat import cli
from ranksat.cli import _HISTORY_FIELDS, _config_from_args, build_parser, main
from ranksat.cnf import ClauseArrays
from ranksat.evolve import GaConfig, optimize
from ranksat.harness import (
    FINAL_SHOTS_DEFAULT,
    artifact_histogram,
    canonical_json,
    improvement_factor,
    load_artifact,
    regenerate_g_histogram,
    repro_hash,
    run_optimize,
    run_sample,
    save_artifact,
)
from ranksat.qsim import AngleVector, draw_planes, prepare_state
from ranksat.shaping import CostHistogram, cost_histogram

from conftest import random_formula, scored
from dense_reference import block_shots

TINY = dict(generations=3, population=6, elites=1, shots_per_eval=60, seed=17)


def _tiny_cfg(**over):
    return GaConfig(**{**TINY, **over})


# -- CLI: validate / enumerate -----------------------------------------------

def test_cli_validate(widget_path, capsys):
    assert main(["validate", widget_path]) == 0
    out = capsys.readouterr().out
    assert "n=5 m=10" in out


def test_cli_validate_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 3 2\n1 2 0\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "mismatch" in err


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "/does/not/exist.cnf"]) == 2


def test_cli_enumerate_csv(widget_path, capsys):
    assert main(["enumerate", widget_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,count,probability,cumfreq"
    assert lines[1].startswith("0,4,0.125")
    assert lines[2].startswith("1,16,0.5")
    assert lines[3].startswith("2,12,0.375")
    probs = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert abs(sum(probs) - 1.0) < 1e-4  # emitted column sums to 100%


def test_cli_enumerate_json_to_file(widget_path, tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["enumerate", widget_path, "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert [r["count"] for r in rows] == [4, 16, 12]


def test_cli_enumerate_guard(tmp_path, capsys):
    big = tmp_path / "big.cnf"
    lits = " ".join(str(i) for i in range(1, 4))
    big.write_text("p cnf 27 1\n" + lits + " 0\n")
    assert main(["enumerate", str(big)]) == 1
    assert "guard" in capsys.readouterr().err


def test_cli_reports_out_of_memory(widget_path, monkeypatch, capsys):
    # a --max-n raised past what memory holds once escaped as a MemoryError traceback
    def too_big(f, max_n):
        raise MemoryError(f"cannot hold 2**{max_n} ranks")

    monkeypatch.setattr(cli, "enumerate_h", too_big)
    assert main(["enumerate", widget_path, "--max-n", "40"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: out of memory: cannot hold 2**40 ranks"]


# -- optimize artifacts -------------------------------------------------------

def test_run_optimize_artifact(widget_path):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=5000)
    run = art["run"]
    assert art["schema"] == "ranksat-run/1"
    assert run["instance"]["n"] == 5 and run["instance"]["m"] == 10
    assert len(run["history"]) == TINY["generations"] + 1
    fits = [r["best_so_far_fitness"] for r in run["history"]]
    assert all(b >= a for a, b in zip(fits, fits[1:]))
    assert run["oracle"] is not None
    assert run["oracle"]["p_h0_uniform"] == 0.125
    assert art["repro_hash"] == repro_hash(run)
    # improvement factor is sampled P(h=0) over the uniform baseline
    assert run["improvement_factor"] == pytest.approx(
        run["final_sample"]["p_h0"] / 0.125
    )


def test_run_optimize_deterministic(widget_path):
    a = run_optimize(widget_path, _tiny_cfg(), final_shots=4000)
    b = run_optimize(widget_path, _tiny_cfg(), final_shots=4000)
    assert a["repro_hash"] == b["repro_hash"]
    assert canonical_json(a["run"]) == canonical_json(b["run"])
    c = run_optimize(widget_path, _tiny_cfg(seed=18), final_shots=4000)
    assert c["repro_hash"] != a["repro_hash"]


def test_artifact_save_load_tamper(tmp_path, widget_path):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=2000)
    path = tmp_path / "run.json"
    save_artifact(art, str(path))
    loaded = load_artifact(str(path))
    assert loaded["repro_hash"] == art["repro_hash"]
    tampered = json.loads(path.read_text())
    tampered["run"]["final_sample"]["p_h0"] = 1.0
    path.write_text(json.dumps(tampered))
    with pytest.raises(ValueError, match="hash"):
        load_artifact(str(path))


def test_cli_optimize_prints_factor(widget_path, tmp_path, capsys):
    out = tmp_path / "run.json"
    argv = [
        "optimize", widget_path, "--generations", "2", "--population", "6",
        "--elites", "1", "--shots", "50", "--final-shots", "2000",
        "--seed", "9", "--out", str(out),
    ]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "improvement factor" in text
    assert out.exists()
    art = load_artifact(str(out))
    assert art["run"]["config"]["generations"] == 2


def test_cli_optimize_rejects_bad_config(widget_path, tmp_path, capsys):
    argv = [
        "optimize", widget_path, "--elites", "40", "--out",
        str(tmp_path / "x.json"),
    ]
    assert main(argv) == 2
    assert "elites" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--zeta", "--vartheta"])
def test_cli_optimize_has_no_cost_flags(widget_path, tmp_path, flag, capsys):
    # the GA always scores with default_params, so a cost flag is refused
    with pytest.raises(SystemExit) as exc:
        main(["optimize", widget_path, flag, "1", "--out", str(tmp_path / "x.json")])
    assert exc.value.code == 2


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_cli_optimize_checks_final_shots_before_the_ga(
    widget_path, tmp_path, shots, monkeypatch, capsys
):
    calls = []
    monkeypatch.setattr("ranksat.harness.optimize", lambda *a, **k: calls.append(a))
    argv = ["optimize", widget_path, "--final-shots", shots, "--out", str(tmp_path / "x.json")]
    assert main(argv) == 2
    assert calls == []
    assert "shot count must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_run_optimize_stores_the_ga_history_rows(widget, widget_path):
    # optimize writes the artifact's history rows, in the layout report --what history reads
    best, rows = optimize(widget, _tiny_cfg())
    run = run_optimize(widget_path, _tiny_cfg(), final_shots=100)["run"]
    assert run["history"] == rows
    assert run["best_angles"] == rows[-1]["best_so_far_angles"] == best.to_json_obj()
    assert run["best_fitness"] == rows[-1]["best_so_far_fitness"]
    assert all(list(row) == [*_HISTORY_FIELDS, "best_so_far_angles"] for row in rows)


def test_run_optimize_zero_angles_equivalent(widget_path):
    # generations=0 reduces to the best of the random initial population
    art = run_optimize(widget_path, _tiny_cfg(generations=0), final_shots=1000)
    assert len(art["run"]["history"]) == 1


def test_run_optimize_guard_only_disables_oracle(widget_path):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=1000, oracle_max_n=4)
    run = art["run"]
    assert run["oracle"] is None
    assert run["improvement_factor"] is None
    assert sum(r["count"] for r in run["final_sample"]["h_histogram"]) == 1000


def test_cli_enumerate_empty_formula(tmp_path, capsys):
    empty = tmp_path / "empty.cnf"
    empty.write_text("p cnf 3 0\n")
    assert main(["enumerate", str(empty)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "0,8,1,1"


def test_cli_optimize_empty_formula(tmp_path, capsys):
    # zero clauses once divided by m in the fitness pass: ZeroDivisionError, exit 1
    empty = tmp_path / "empty.cnf"
    empty.write_text("p cnf 3 0\n")
    out = tmp_path / "run.json"
    argv = ["optimize", str(empty), "--generations", "2", "--population", "4", "--elites", "1",
            "--shots", "16", "--final-shots", "100", "--out", str(out)]
    assert main(argv) == 0
    assert "best shaped cost: 0" in capsys.readouterr().out
    assert load_artifact(str(out))["run"]["final_sample"]["h_histogram"] == [
        {"h": 0, "count": 100, "probability": 1.0, "cumfreq": 1.0}]


# -- sample / compare / report -------------------------------------------------

def _write_zero_angles(path: Path, depth=2):
    path.write_text(json.dumps(AngleVector.zeros(depth).to_json_obj()))


def test_cli_sample_uniform_matches_enumeration(widget_path, tmp_path, capsys):
    angles = tmp_path / "angles.json"
    _write_zero_angles(angles)
    argv = [
        "sample", widget_path, "--angles", str(angles),
        "--shots", "100000", "--seed", "5",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "h,count,probability,cumfreq"
    probs = {int(ln.split(",")[0]): float(ln.split(",")[2]) for ln in lines[1:]}
    assert probs[0] == pytest.approx(0.125, abs=0.005)
    assert probs[1] == pytest.approx(0.500, abs=0.005)
    assert probs[2] == pytest.approx(0.375, abs=0.005)


def test_cli_sample_single_shot(widget_path, tmp_path, capsys):
    angles = tmp_path / "angles.json"
    _write_zero_angles(angles)
    assert main(["sample", widget_path, "--angles", str(angles), "--shots", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header plus exactly one row


def test_cli_sample_deterministic(widget_path, tmp_path, capsys):
    angles = tmp_path / "angles.json"
    _write_zero_angles(angles)
    argv = ["sample", widget_path, "--angles", str(angles), "--shots", "500", "--seed", "3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_sample_n_mismatch(widget_path, tmp_path, capsys):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    art_path = tmp_path / "run.json"
    save_artifact(art, str(art_path))
    other = tmp_path / "n3.cnf"
    other.write_text("p cnf 3 1\n1 2 3 0\n")
    assert main(["sample", str(other), "--angles", str(art_path)]) == 2
    assert "n=5" in capsys.readouterr().err


def test_artifact_records_the_instance_the_run_parsed(widget_path, tmp_path, monkeypatch):
    # the file is read once: rewritten after the GA, it leaves the artifact with the hash of
    # the bytes the run parsed, and their n and m
    path, original = tmp_path / "w.cnf", Path(widget_path).read_bytes()
    path.write_bytes(original)
    inner = rs.harness.optimize

    def rewrite_after(f, cfg):
        result = inner(f, cfg)
        path.write_text("p cnf 3 1\n1 2 3 0\n")
        return result

    monkeypatch.setattr(rs.harness, "optimize", rewrite_after)
    art = run_optimize(str(path), _tiny_cfg(), final_shots=100)
    assert art["run"]["instance"] == {
        "path": str(path), "sha256": hashlib.sha256(original).hexdigest(), "n": 5, "m": 10}


def test_crlf_instance_is_hashed_as_read(widget, widget_path, tmp_path):
    # the artifact parses the decoded bytes it hashes; a text-mode read translates CRLF
    data = Path(widget_path).read_bytes().replace(b"\n", b"\r\n")
    path = tmp_path / "crlf.cnf"
    path.write_bytes(data)
    assert rs.cnf.load_instance_file(str(path)) == widget
    instance = run_sample(str(path), AngleVector.zeros(2), 10, 1)["run"]["instance"]
    assert instance["sha256"] == hashlib.sha256(data).hexdigest()
    assert (instance["n"], instance["m"]) == (widget.n, widget.m)


def test_run_sample_artifact_roundtrip(widget_path, tmp_path):
    art = run_sample(widget_path, AngleVector.zeros(2), shots=2000, seed=11)
    assert art["schema"] == "ranksat-sample/1"
    path = tmp_path / "sample.json"
    save_artifact(art, str(path))
    hist = artifact_histogram(load_artifact(str(path)))
    assert hist.total == 2000


def _report_sample(f, p1, shots, rng, zeta=None):
    """The scores of a report sample of ``shots`` shots of the bias row ``p1``, as the
    harness draws and scores it."""
    return f.arrays.scores(lambda count: draw_planes(p1, count, rng), shots, zeta)


@pytest.mark.parametrize("n, m", [(7, 21), (999, 2100), (1000, 4260)])
def test_streamed_scores_equal_the_sample_matrix(n, m):
    # the report sample draws blocks of f.arrays.rows shots; it equals the per-block reference
    # shots scored as one matrix. Even columns have p < 2**-16 (threshold 0), so each of
    # their 1s is a settled tie; odd columns have thresholds at the words of shot 5 of the
    # first block, so that shot ties in every odd column
    f = random_formula(np.random.default_rng(n), n=n, m=m)
    rows = f.arrays.rows
    s = 3 * rows + 17  # three whole blocks and a remainder
    first = np.random.default_rng(8).bit_generator.random_raw(-(-rows * n // 4))
    p1 = np.full(n, 0.9 * 2.0**-16)
    p1[1::2] = (first.astype("<u8").view("<u2")[:rows * n].reshape(n, rows)[1::2, 5] + 0.5) / 65536
    t = np.minimum(65536 * p1, 65535).astype(np.uint16)
    rng, blocks, tie_blocks = np.random.default_rng(8), [], 0
    for start in range(0, s, rows):
        count = min(rows, s - start)
        probe = np.random.default_rng()
        probe.bit_generator.state = rng.bit_generator.state
        raw = probe.bit_generator.random_raw(-(-count * n // 4))
        tied = raw.astype("<u8").view("<u2")[:count * n].reshape(n, count) == t[:, None]
        tie_blocks += bool(tied[::2].any())
        blocks.append(block_shots(p1, count, rng))
        assert not (blocks[-1].T[::2] & ~tied[::2]).any()
    bits = np.vstack(blocks)
    assert tie_blocks >= 2 and bits[:, ::2].any() and 0 < bits[5, 1::2].sum() < n // 2
    h, d = scored(f, bits)
    zeta = rs.default_params(f).zeta
    for cost, expected in ((None, h), (zeta, zeta * h + d)):
        streamed = _report_sample(f, p1, s, np.random.default_rng(8), cost)
        np.testing.assert_array_equal(streamed, expected)
        assert streamed.tobytes() == expected.astype(streamed.dtype).tobytes()
    hist = cost_histogram(f, bits, rs.default_params(f))
    assert CostHistogram.from_samples(streamed).to_json_obj() == hist.to_json_obj()


def test_streamed_sample_memory_does_not_grow_with_shots():
    # the run-sample path (sample, score, histogram) at n=1000, m=4260; the (s, n) bit matrix
    # alone would take 1000 bytes per shot, 80 MB at 80k shots
    f = random_formula(np.random.default_rng(1), n=1000, m=4260)
    f.arrays
    p1 = prepare_state(f.n, AngleVector((0.4,), (0.7,)))
    CostHistogram.from_samples(_report_sample(f, p1, 1000, np.random.default_rng(0)))
    peaks = {}  # the call above keeps numpy's first-call allocations out of them
    for s in (20_000, 80_000):
        tracemalloc.start()
        try:
            CostHistogram.from_samples(_report_sample(f, p1, s, np.random.default_rng(0)))
            peaks[s] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[80_000] < 12 * 2**20
    # the per-shot h (uint16 at m=4260) is the only term that grows: 2 bytes per shot
    assert peaks[80_000] - peaks[20_000] < 3 * 60_000


def test_cli_compare_self(widget_path, tmp_path, capsys):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=2000)
    a = tmp_path / "a.json"
    save_artifact(art, str(a))
    assert main(["compare", str(a), str(a)]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if "," in ln and not ln.startswith("p_h0")]
    for ln in lines[1:]:
        cells = ln.split(",")
        assert cells[1] == cells[3] and cells[2] == cells[4]
    assert "p_h0" in out and "e_0.1" in out and "e_0.5" in out and "mean_h" in out


@pytest.mark.parametrize("row,key,value,message", [
    (0, "count", -5, "row 0"),
    (1, "count", 2.9, "row 1"),
    (0, "count", True, "row 0"),
    (0, "h", -1, "row 0"),
    (1, "h", "1", "row 1"),
    (0, "count", None, "final_sample.shots"),  # None: one shot more than stored
    # int64 counts and float64 values: these once escaped as OverflowError tracebacks, exit 1
    (0, "count", 10**20, "row 0"),
    (0, "h", 10**400, "row 0"),
], ids=["negative", "fractional", "bool", "negative-h", "string-h", "total", "huge-count",
        "huge-h"])
@pytest.mark.parametrize("verb", ["report", "compare"])
def test_cli_refuses_bad_histogram_counts(
    widget_path, tmp_path, verb, row, key, value, message, capsys
):
    # a rehashed artifact whose stored counts no shot sample could give
    good = run_optimize(widget_path, _tiny_cfg(), final_shots=2000)
    bad = json.loads(json.dumps(good))
    rows = bad["run"]["final_sample"]["h_histogram"]
    assert len(rows) >= 2
    rows[row][key] = rows[row][key] + 1 if value is None else value
    bad["repro_hash"] = repro_hash(bad["run"])
    save_artifact(good, str(tmp_path / "good.json"))
    save_artifact(bad, str(tmp_path / "bad.json"))
    paths = [str(tmp_path / "good.json"), str(tmp_path / "bad.json")]
    assert main([verb, *paths] if verb == "compare" else [verb, paths[1]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("shots, value", [(1000, 1000.0), (1, True), (1000, 0)],
                         ids=["float", "bool", "zero"])
@pytest.mark.parametrize("argv", [["report"], ["report", "--g-level"], ["compare"]],
                         ids=["report", "g-level", "compare"])
def test_cli_refuses_shots_that_are_not_a_positive_integer(
    widget_path, tmp_path, argv, shots, value, capsys
):
    # 1000.0 == 1000 and True == 1, so only the JSON type tells these from a real count
    good = run_sample(widget_path, AngleVector.zeros(2), shots=shots, seed=3)
    bad = json.loads(json.dumps(good))
    bad["run"]["final_sample"]["shots"] = value
    bad["repro_hash"] = repro_hash(bad["run"])
    save_artifact(good, str(tmp_path / "good.json"))
    save_artifact(bad, str(tmp_path / "bad.json"))
    paths = [str(tmp_path / "good.json"), str(tmp_path / "bad.json")]
    if argv[0] == "compare":
        assert main(["compare", paths[0], paths[0]]) == 0
        capsys.readouterr()
        assert main(["compare", *paths]) == main(["compare", *paths[::-1]]) == 2
    else:
        assert main([argv[0], paths[0], *argv[1:]]) == 0
        capsys.readouterr()
        assert main([argv[0], paths[1], *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"final_sample.shots must be an integer >= 1, got {value!r}" in captured.err


@pytest.mark.parametrize("entry, value, verbs", [
    ("final_sample.h_histogram", 5,
     [["report"], ["report", "--what", "final"], ["report", "--g-level"], ["compare"]]),
    ("oracle.initial_h", 5, [["report", "--what", "initial"]]),
    ("oracle", [1], [["report", "--what", "initial"]]),
], ids=["final-histogram", "initial-histogram", "oracle"])
def test_cli_refuses_sections_of_the_wrong_json_type(
    widget_path, tmp_path, entry, value, verbs, capsys
):
    # a rehashed artifact whose section is not the JSON type its reader walks once died with
    # a TypeError traceback and exit 1
    good = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    bad = json.loads(json.dumps(good))
    section, _, key = entry.rpartition(".")
    (bad["run"][section] if section else bad["run"])[key] = value
    bad["repro_hash"] = repro_hash(bad["run"])
    save_artifact(good, str(tmp_path / "good.json"))
    save_artifact(bad, str(tmp_path / "bad.json"))
    for verb, *flags in verbs:
        paths = [str(tmp_path / "good.json")] if verb == "compare" else []
        assert main([verb, *paths, str(tmp_path / "bad.json"), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {entry} must be a JSON" in captured.err


def test_cli_defaults_are_the_library_defaults():
    # the GA flags and both shot counts read GaConfig's fields and FINAL_SHOTS_DEFAULT
    parser = build_parser()
    args = parser.parse_args(["optimize", "x.cnf", "--out", "y"])
    assert _config_from_args(args) == GaConfig()
    assert args.final_shots == FINAL_SHOTS_DEFAULT
    assert parser.parse_args(["sample", "x.cnf", "--angles", "a.json"]).shots == FINAL_SHOTS_DEFAULT


def test_cli_report_initial_rederives_checked_rows(widget_path, tmp_path, capsys):
    # a rehashed artifact whose stored initial_h rows no enumeration could give
    good = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    save_artifact(good, str(tmp_path / "good.json"))
    assert main(["report", str(tmp_path / "good.json"), "--what", "initial"]) == 0
    expected = capsys.readouterr().out

    def report(edit):
        bad = json.loads(json.dumps(good))
        edit(bad["run"]["oracle"]["initial_h"], bad["run"]["instance"])
        bad["repro_hash"] = repro_hash(bad["run"])
        save_artifact(bad, str(tmp_path / "bad.json"))
        code = main(["report", str(tmp_path / "bad.json"), "--what", "initial"])
        return code, capsys.readouterr()

    # a stored probability is not printed: every row is re-derived from the counts
    code, captured = report(lambda rows, _: rows[1].update(probability=7.5))
    assert (code, captured.out) == (0, expected)
    for row in ({"count": -5}, {"count": 10**20}, {"h": 10**400}):
        code, captured = report(lambda rows, _: rows[0].update(row))
        assert (code, captured.out) == (2, "")
        assert "row 0" in captured.err
    code, captured = report(lambda rows, _: rows[0].update(count=rows[0]["count"] + 1))
    assert (code, captured.out) == (2, "")
    assert "33 assignments, but instance.n is 5" in captured.err
    code, captured = report(lambda _, instance: instance.update(n="5"))
    assert (code, captured.out) == (2, "")


def test_cli_compare_instance_mismatch(widget_path, tmp_path, capsys):
    art_a = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    other = tmp_path / "other.cnf"
    other.write_text("p cnf 2 1\n1 2 0\n")
    art_b = run_optimize(str(other), _tiny_cfg(), final_shots=500)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_artifact(art_a, str(pa))
    save_artifact(art_b, str(pb))
    assert main(["compare", str(pa), str(pb)]) == 2
    assert "different instances" in capsys.readouterr().err


def test_cli_report_sections(widget_path, tmp_path, capsys):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=2000)
    path = tmp_path / "run.json"
    save_artifact(art, str(path))

    assert main(["report", str(path), "--what", "final"]) == 0
    final = capsys.readouterr().out
    assert final.splitlines()[0] == "h,count,probability,cumfreq"

    assert main(["report", str(path), "--what", "initial"]) == 0
    initial = capsys.readouterr().out
    assert initial.splitlines()[1].startswith("0,4,")

    assert main(["report", str(path), "--what", "history"]) == 0
    history = capsys.readouterr().out
    assert history.splitlines()[0].startswith("generation,")
    assert len(history.strip().splitlines()) == TINY["generations"] + 2

    assert main(["report", str(path), "--what", "final", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert sum(r["count"] for r in rows) == 2000


def test_cli_report_history_json(widget_path, tmp_path, capsys):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    path = tmp_path / "run.json"
    save_artifact(art, str(path))
    assert main(["report", str(path), "--what", "history", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == art["run"]["history"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("history", [
    5, [5], [{"generation": 0, "mean_fitness": -1.0, "best_so_far_fitness": -1.0}],
], ids=["number", "list-of-number", "row-without-best-fitness"])
def test_cli_report_refuses_malformed_history(widget_path, tmp_path, history, fmt, capsys):
    # a hash-consistent artifact whose history is not a list of generation records
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    art["run"]["history"] = history
    art["repro_hash"] = repro_hash(art["run"])
    path = tmp_path / "run.json"
    save_artifact(art, str(path))
    assert main(["report", str(path), "--what", "history", "--format", fmt]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: history must be a list of objects" in out.err


@pytest.mark.parametrize("what", ["initial", "history"])
def test_cli_report_g_level_only_for_final(widget_path, tmp_path, what, capsys):
    path = tmp_path / "run.json"
    save_artifact(run_optimize(widget_path, _tiny_cfg(), final_shots=500), str(path))
    assert main(["report", str(path), "--what", what, "--g-level"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--g-level" in captured.err and what in captured.err


def test_report_g_level_regenerates(widget_path, tmp_path, capsys):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=2000)
    path = tmp_path / "run.json"
    save_artifact(art, str(path))
    hist = regenerate_g_histogram(art)
    assert hist.total == 2000
    assert main(["report", str(path), "--what", "final", "--g-level"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "g,count,probability,cumfreq"
    assert sum(int(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]) == 2000


def test_cli_report_g_level_refuses_other_shots(widget_path, tmp_path, capsys):
    # as an artifact from an earlier sampler would: same total, other h counts
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=2000)
    rows = art["run"]["final_sample"]["h_histogram"]
    assert len(rows) >= 2
    rows[0]["count"] += 1
    rows[1]["count"] -= 1
    art["repro_hash"] = repro_hash(art["run"])
    path = tmp_path / "run.json"
    save_artifact(art, str(path))
    assert main(["report", str(path), "--what", "final", "--g-level"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "do not match the stored h histogram" in captured.err
    assert f"h={rows[0]['h']} " in captured.err


def test_cli_report_g_level_stale_instance(widget_path, tmp_path, capsys):
    inst = tmp_path / "w.cnf"
    inst.write_text(Path(widget_path).read_text())
    path = tmp_path / "run.json"
    save_artifact(run_optimize(str(inst), _tiny_cfg(), final_shots=500), str(path))
    inst.write_text(inst.read_text() + "c edited after the run\n")
    assert main(["report", str(path), "--what", "final", "--g-level"]) == 2
    assert "sha256" in capsys.readouterr().err


def test_cli_report_g_level_refuses_other_weights(widget_path, tmp_path, capsys):
    art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    art["run"]["cost_params"]["vartheta"] = 2.0
    art["repro_hash"] = repro_hash(art["run"])
    path = tmp_path / "run.json"
    save_artifact(art, str(path))
    assert main(["report", str(path), "--what", "final", "--g-level"]) == 2
    assert "fixed weights" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[], {"schema": "ranksat-run/1", "run": [1]}])
def test_cli_report_malformed_artifact(tmp_path, doc, capsys):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 2
    assert "JSON objects" in capsys.readouterr().err


def _sample_artifact(angles):
    run = {
        "angles": angles,
        "instance": {"path": "widget.cnf", "sha256": "", "n": 5},
        "seed": 1,
        "final_sample": {"shots": 0, "h_histogram": []},
    }
    return {"schema": "ranksat-sample/1", "run": run, "repro_hash": repro_hash(run)}


def _without(run, section, replacement=None):
    run = {k: v for k, v in run.items() if k != section}
    if replacement is not None:
        run[section] = replacement
    return run


@pytest.mark.parametrize("schema,edit,argv,message", [
    ("run", lambda run: {}, ["report"], "run has no 'instance' object"),
    ("run", lambda run: _without(run, "final_sample"), ["report"],
     "run has no 'final_sample' object"),
    ("run", lambda run: _without(run, "final_sample", {}), ["report"],
     "run has no 'final_sample.h_histogram'"),
    ("run", lambda run: _without(run, "final_sample", []), ["report"],
     "run has no 'final_sample' object"),
    ("run", lambda run: _without(run, "instance"), ["report", "--g-level"],
     "run has no 'instance' object"),
    ("run", lambda run: _without(run, "config"), ["report", "--g-level"],
     "run has no 'config' object"),
    ("run", lambda run: _without(run, "instance"), ["compare"], "run has no 'instance' object"),
    ("sample", lambda run: _without(run, "seed"), ["report", "--g-level"], "run has no 'seed'"),
], ids=[
    "empty-run", "no-final-sample", "empty-final-sample", "list-final-sample",
    "g-level-no-instance", "g-level-no-config", "compare-no-instance", "sample-no-seed",
])
def test_cli_refuses_artifact_missing_a_section(
    widget_path, tmp_path, schema, edit, argv, message, capsys
):
    if schema == "run":
        art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    else:
        art = run_sample(widget_path, AngleVector.zeros(1), shots=10, seed=1)
    art["run"] = edit(art["run"])
    art["repro_hash"] = repro_hash(art["run"])
    path = tmp_path / "x.json"
    save_artifact(art, str(path))
    args = [argv[0], str(path)] + (argv[1:] if argv[0] == "report" else [str(path)])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err and str(path) in err


@pytest.mark.parametrize("value", ["x", "3", 1.5, None, True],
                         ids=["str", "numeric-str", "float", "null", "bool"])
@pytest.mark.parametrize("schema, entry, argv", [
    ("run", "config.seed", ["report", "{art}", "--g-level"]),
    ("sample", "seed", ["report", "{art}", "--g-level"]),
    ("run", "instance.n", ["sample", "{inst}", "--angles", "{art}", "--shots", "10"]),
    ("sample", "instance.n", ["report", "{art}"]),
], ids=["run-seed", "sample-seed", "run-n", "sample-n"])
def test_cli_refuses_artifact_entries_that_are_not_integers(
    widget_path, tmp_path, schema, entry, argv, value, capsys
):
    # rehashed, so only the type check can catch the entry; a float seed or a null one would
    # reach seed_stream, and "3" != 3 would make sample report a mismatch of n=3 against n=3
    if schema == "run":
        art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    else:
        art = run_sample(widget_path, AngleVector.zeros(1), shots=10, seed=1)
    section, _, key = entry.rpartition(".")
    (art["run"][section] if section else art["run"])[key] = value
    art["repro_hash"] = repro_hash(art["run"])
    path = tmp_path / "x.json"
    save_artifact(art, str(path))
    assert main([a.format(art=path, inst=widget_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"run entry '{entry}' must be a JSON integer, got {value!r}" in captured.err
    assert str(path) in captured.err


@pytest.mark.parametrize("value", [5, None, []], ids=["number", "null", "list"])
@pytest.mark.parametrize("entry", ["instance.path", "instance.sha256"])
@pytest.mark.parametrize("schema", ["run", "sample"])
def test_cli_refuses_instance_entries_that_are_not_strings(
    widget_path, tmp_path, schema, entry, value, capsys
):
    # rehashed, so only the type check can catch the entry; a numeric path once reached
    # Path(5) in regenerate_g_histogram and died there with a TypeError, exit 1
    if schema == "run":
        art = run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    else:
        art = run_sample(widget_path, AngleVector.zeros(1), shots=10, seed=1)
    section, _, key = entry.rpartition(".")
    art["run"][section][key] = value
    art["repro_hash"] = repro_hash(art["run"])
    path = tmp_path / "x.json"
    save_artifact(art, str(path))
    assert main(["report", str(path), "--g-level"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"run entry '{entry}' must be a JSON string, got {value!r}" in captured.err
    assert str(path) in captured.err


@pytest.mark.parametrize("doc,message", [
    ([1, 2], "angle layer 0"),
    ([{"beta": 0.1, "gamma": 0.2}, {"beta": 0.1}], "angle layer 1"),
    ([{"beta": 0.1, "gamma": "x"}], "angle layer 0"),
    (_sample_artifact(5), "list of layers"),
    # a NaN bias compares False with every uniform, so each shot would read all zeros
    ([{"beta": float("nan"), "gamma": 1.0}], "angle layer 0"),
    ([{"beta": 0.1, "gamma": 0.2}, {"beta": 0.1, "gamma": float("inf")}], "angle layer 1"),
    (_sample_artifact([{"beta": float("-inf"), "gamma": 0.2}]), "angle layer 0"),
    # JSON integers past float64 once escaped math.isfinite as an OverflowError, exit 1
    ([{"beta": 10**400, "gamma": 0.5}], "angle layer 0"),
    (_sample_artifact([{"beta": 0.1, "gamma": 0.2}, {"beta": 0.1, "gamma": -10**400}]),
     "angle layer 1"),
])
def test_cli_sample_malformed_angles(widget_path, tmp_path, doc, message, capsys):
    angles = tmp_path / "a.json"
    angles.write_text(json.dumps(doc))
    assert main(["sample", widget_path, "--angles", str(angles)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["sample", "optimize"])
def test_cli_refuses_phases_past_float64(tmp_path, verb, capsys):
    # 2.0**1024 overflows, so past 1024 qubits no gamma has finite phases; such qubits once
    # sampled as all zeros with only a RuntimeWarning. The phases of every qubit were once
    # taken first: 10**11 qubits ran out of memory, and at 10**24 sample read "Maximum
    # allowed size exceeded" and optimize overflowed int64 in the scorer
    instance = tmp_path / "wide.cnf"
    angles = tmp_path / "a.json"
    angles.write_text(json.dumps([{"beta": 0.3, "gamma": 1.1}]))
    out = tmp_path / "x.json"
    argv = {
        "sample": ["sample", str(instance), "--angles", str(angles), "--out", str(out)],
        "optimize": ["optimize", str(instance), "--generations", "1", "--population", "4",
                     "--elites", "1", "--shots", "8", "--out", str(out)],
    }[verb]
    for n in (1100, 2000, 10**11, 10**24):
        instance.write_text(f"p cnf {n} 1\n1 -{n} 0\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "is not finite from qubit" in err and f"the phases of {n} qubits" in err
        assert not out.exists()


def test_cli_report_g_level_relative_instance(widget_path, tmp_path, monkeypatch, capsys):
    run_dir = tmp_path / "a"
    run_dir.mkdir()
    shutil.copy(widget_path, run_dir / "widget.cnf")
    monkeypatch.chdir(run_dir)
    flags = ["--generations", "2", "--population", "6", "--elites", "1", "--shots", "60"]
    assert main(["optimize", "widget.cnf", *flags, "--final-shots", "500",
                 "--out", "run.json"]) == 0
    capsys.readouterr()
    assert main(["report", "run.json", "--what", "final", "--g-level"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert main(["report", "a/run.json", "--what", "final", "--g-level"]) == 0
    assert capsys.readouterr().out == expected



@pytest.mark.parametrize("meta", [None, []], ids=["no-meta", "list-meta"])
def test_cli_report_g_level_missing_instance_without_meta(
    widget_path, tmp_path, monkeypatch, meta, capsys
):
    # "meta" is outside the hash, so an edited one passes the artifact checks
    run_dir = tmp_path / "a"
    run_dir.mkdir()
    shutil.copy(widget_path, run_dir / "widget.cnf")
    monkeypatch.chdir(run_dir)
    art = run_optimize("widget.cnf", _tiny_cfg(), final_shots=500)
    if meta is None:
        del art["meta"]
    else:
        art["meta"] = meta
    save_artifact(art, "run.json")
    monkeypatch.chdir(tmp_path)
    assert main(["report", "a/run.json", "--what", "final", "--g-level"]) == 2
    assert "widget.cnf not found" in capsys.readouterr().err

def test_run_optimize_compiles_formula_once(widget_path, monkeypatch):
    compiled = []
    init = ClauseArrays.__init__

    def counting_init(self, f):
        compiled.append(f)
        init(self, f)

    monkeypatch.setattr(ClauseArrays, "__init__", counting_init)
    run_optimize(widget_path, _tiny_cfg(), final_shots=500)
    assert len(compiled) == 1


def test_improvement_factor_math(widget):
    initial = rs.enumerate_h(widget)
    assert improvement_factor(0.5, initial) == pytest.approx(4.0)
    unsat = rs.CnfFormula.from_signed(1, [[1], [-1]])
    assert improvement_factor(0.0, rs.enumerate_h(unsat)) is None

