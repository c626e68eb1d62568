"""Public surface guard: exported names resolve, and the benchmark's targets exist.

perfbench wraps ranksat functions by module and attribute name, so deleting
or renaming one of them would break the benchmark without failing any other
tier-1 test.
"""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranksat as rs
from ranksat.cli import main
from ranksat.cnf import ClauseArrays, CnfFormula
from ranksat.evolve import GaConfig

MODULES = ("cnf", "qsim", "shaping", "evolve", "oracle", "harness")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# The package's public names, pinned so that adding one is a visible decision.
PUBLIC = {
    "__version__",
    "Literal", "Clause", "CnfFormula", "CostParams", "DimacsError",
    "parse_dimacs", "parse_dimacs_file", "parse_json_instance",
    "default_params",
    "AngleVector", "prepare_state",
    "CostHistogram", "QuantileSet",
    "GaConfig", "optimize",
    "GuardError", "enumerate_h", "exact_h_distribution",
    # kept only for perfbench, which wraps or calls them by name: no CLI path runs them
    "h_count", "sample", "cost_histogram", "h_histogram", "shaped_cost",
    "evaluate_fitness", "list_solutions", "exact_shaped_cost",
}


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"ranksat.{module}" if module else "ranksat")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


@pytest.mark.parametrize("module", ("",) + MODULES + ("cli",))
def test_module_imports_are_used(module):
    # every name a module imports at module level is read in it or exported by its
    # __all__, so a deletion cannot leave a stray import behind
    mod = importlib.import_module(f"ranksat.{module}" if module else "ranksat")
    tree = ast.parse(inspect.getsource(mod))
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__" for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(mod, "__all__", ()))) == []


def test_public_names_are_pinned():
    assert set(rs.__all__) == PUBLIC
    assert len(rs.__all__) == len(PUBLIC)


def test_cli_import_loads_no_network_modules():
    # instances are read from disk; nothing on the CLI path needs a network stack
    network = ("tarfile", "urllib.request", "http.client", "ssl")
    # and the CLI's start-up time is an interpreter plus numpy: no other third-party package
    # (scipy, which the tests use) is imported. The bare interpreter's modules are the
    # baseline, since site may import third-party ones (certifi) before any code runs.
    code = ("import sys; tops = lambda: {m.partition('.')[0] for m in sys.modules}; "
            "bare = tops(); import ranksat.cli; "
            "print(*sorted(tops() - bare - set(sys.stdlib_module_names))); "
            f"print(*[m for m in {network!r} if m in sys.modules])")
    paths = [str(Path(rs.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    third_party, loaded_network = out.stdout.split("\n")[:2]
    assert third_party.split() == ["numpy", "ranksat"]
    assert loaded_network.split() == []


def test_fetch_satlib_is_an_unknown_verb(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fetch-satlib", "d"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "fetch-satlib" in err


def test_perfbench_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = [(module, attr) for module, attr, _, _ in layers.FUNCTIONS]
    targets.append(("cnf", "h_count"))
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not hasattr(importlib.import_module(f"ranksat.{module}"), attr)
    ]
    # perfbench patches these methods on the class itself
    missing += [
        f"ClauseArrays.{attr}" for attr in ("__init__", "unsat_matrix")
        if attr not in vars(ClauseArrays)
    ]
    assert missing == []


def test_perfbench_call_shapes(widget, monkeypatch):
    # perfbench/workloads.py and perfbench/run.py call these positionally
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    params = rs.cnf.default_params(widget)
    assert params.zeta == 386.0
    angles, levels = rs.qsim.AngleVector.zeros(2), rs.shaping.QuantileSet.default()
    shots = rs.qsim.sample(rs.qsim.prepare_state(widget.n, angles), 100, np.random.default_rng(0))
    hist = rs.shaping.cost_histogram(widget, shots, params)
    assert hist.total == 100
    assert rs.oracle.exact_shaped_cost(widget, angles, params, levels) > 0
    assert rs.cnf.h_count(widget, [1, 1, 1, 0, 0]) == 0
    # the oracle workload's checks read the exact distributions' fields
    dist = rs.oracle.exact_h_distribution(widget, angles)
    assert abs(dist.probabilities.sum() - 1.0) <= 1e-9
    assert workloads.unresolved_levels(dist, levels, 100_000) >= 0
    assert rs.oracle.enumerate_h(widget).count_at(0) == 4


@pytest.mark.parametrize("method", ["h", "h_d_sums", "d", "g"])
def test_scorers_reach_unsat_matrix(method, monkeypatch):
    # the cnf.score metrics count unsat_matrix calls: one per block on every path, and h and
    # d read the same block. "h" and "d" are the report sample at h and at g level (one block
    # per drawn block), "g" is cost_histogram (one block per h block of its bits), and
    # "h_d_sums" is the GA's fitness pass (one block per generation)
    calls = []
    inner = ClauseArrays.unsat_matrix

    def counted(self, planes, rows):
        calls.append(rows)
        return inner(self, planes, rows)

    monkeypatch.setattr(ClauseArrays, "unsat_matrix", counted)
    f = CnfFormula.from_signed(3, [[1, -2], [3]] * 2100)
    block, rng = f.arrays.rows, np.random.default_rng(0)
    p1 = rs.prepare_state(f.n, rs.AngleVector.zeros(1))
    if method == "h_d_sums":
        cfg = GaConfig(population=3, elites=0, shots_per_eval=block)
        rs.evolve._fitness_values(f, np.zeros((3, 2 * cfg.depth)), cfg, rng)
        assert calls == [3 * block]
        return
    if method == "g":
        rs.shaping.cost_histogram(f, np.zeros((2 * block + 1, 3), np.uint8), rs.default_params(f))
    else:
        zeta = rs.default_params(f).zeta if method == "d" else None
        f.arrays.scores(lambda count: rs.qsim.draw_planes(p1, count, rng), 2 * block + 1, zeta)
    assert calls == [block, block, 1]


def test_oracle_is_independent_of_batch_scorer():
    # the oracle is the reference the batch scorer is checked against
    oracle = importlib.import_module("ranksat.oracle")
    assert "ClauseArrays" not in inspect.getsource(oracle)


def test_block_sizes_stay_in_cnf():
    # cnf alone sizes the scoring blocks and reads their size, so it alone fixes the blocks
    # a report sample's shots are drawn in; the simulator has no block loop of its own and
    # does not depend on the CNF module
    sizes = re.compile(
        r"\b(_block_rows|SCORE_BLOCK_CELLS|H_BLOCK_CELLS|H_BLOCK_MIN_ROWS|arrays\.rows)\b")
    for module in ("",) + MODULES + ("cli",):
        if module != "cnf":
            source = inspect.getsource(importlib.import_module(f"ranksat.{module}".rstrip(".")))
            assert sizes.findall(source) == [], module
    tree = ast.parse(inspect.getsource(importlib.import_module("ranksat.qsim")))
    imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert [name for name in imported if name and name.endswith("cnf")] == []
    assert not hasattr(rs.qsim, "shot_blocks")


def test_perfbench_tracer_installs_and_restores(widget_path, monkeypatch):
    # a call-shape change that unbinds a target would otherwise fail only under --trace 1
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")

    def bindings():
        mods = [rs] + [importlib.import_module(f"ranksat.{m}") for m in MODULES + ("cli",)]
        return [dict(vars(mod)) for mod in mods] + [dict(vars(ClauseArrays))]

    before = bindings()
    cfg = GaConfig(generations=1, population=4, elites=1, shots_per_eval=50)
    with tracer.Tracer() as t:
        layers.install(t, rs)
        rs.harness.run_optimize(widget_path, cfg, final_shots=500)
        rs.harness.run_sample(widget_path, rs.qsim.AngleVector.zeros(2), 500, 3)
    spans = t.finished()
    names = {span.name for span in spans}
    assert {"evolve.optimize", "cnf.score", "harness.run_sample"} <= names
    # the streamed sample scores its blocks inside run_sample, so cnf.score still sees them
    sample_spans = {i for i, span in enumerate(spans) if span.name == "harness.run_sample"}

    def under_sample(span):
        while span.parent >= 0:
            if span.parent in sample_spans:
                return True
            span = spans[span.parent]
        return False

    assert any(span.name == "cnf.score" and under_sample(span) for span in spans)
    assert bindings() == before


def test_perfbench_splits_ga_generations(widget, monkeypatch):
    # perfbench opens a GA generation at each seed_stream(seed, _TAG_EVOLVE, t)
    # span whose parent is evolve.optimize; the GA must keep drawing one there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    tag = rs.evolve._TAG_EVOLVE
    cfg = GaConfig(generations=3, population=4, elites=1, shots_per_eval=50)
    with tracer.Tracer() as t:
        layers.install(t, rs)
        rs.evolve.optimize(widget, cfg)
    spans = t.finished()
    optimize = {i for i, span in enumerate(spans) if span.name == "evolve.optimize"}
    opening = [
        span for span in spans
        if span.name == "evolve.seed_stream" and span.parent in optimize
        and span.work[:1] == (tag,)
    ]
    assert len(opening) == 3
    slots = cfg.population * (cfg.generations + 1)
    metrics = layers.layer_metrics(spans, widget.n, 3, slots, tag)
    assert metrics["evolve.generation_s_p50"] > 0
