"""Self-tests of the benchmark's own pieces: python3 -m pytest perfbench"""
from __future__ import annotations

import sys
import types

import pytest

from instances import K, planted_ksat, satisfies, to_dimacs
from tracer import Span, Tracer, call_overhead, covered, self_times


@pytest.mark.parametrize("n, m", [(20, 91), (200, 852)])
def test_generator_is_deterministic_and_planted(n, m):
    hidden, clauses = planted_ksat([7, 1], n, m)
    assert (hidden, clauses) == planted_ksat([7, 1], n, m)
    assert planted_ksat([8, 1], n, m)[1] != clauses
    assert len(clauses) == m
    assert all(len({abs(l) for l in c}) == K and all(1 <= abs(l) <= n for l in c)
               for c in clauses)
    assert satisfies(hidden, clauses)


def test_satisfies_detects_a_violated_clause():
    assert not satisfies([1, 0, 0], [[1, 2], [-1, 3]])
    assert satisfies([1, 0, 1], [[1, 2], [-1, 3]])


def test_dimacs_text():
    assert to_dimacs(3, [[1, -2, 3], [-1, 2, -3]]) == "p cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.inner", 5.0, 6.0, 3),
        Span("b.inner2", 8.0, 9.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0])


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (9.0, 12.0)]) == pytest.approx(6.0)
    assert covered(2.0, 4.0, [(0.0, 3.0)]) == pytest.approx(1.0)
    assert covered(0.0, 1.0, []) == 0.0


def test_tracer_patches_every_binding_and_restores(monkeypatch):
    inner = types.ModuleType("tracedpkg.inner")
    exec("def helper(x):\n    return x * 2\n\n"
         "def work(x):\n    return helper(x) + 1\n", inner.__dict__)
    pkg = types.ModuleType("tracedpkg")
    pkg.helper = inner.helper  # a second binding, as ``from .inner import helper`` makes
    originals = inner.helper, inner.work
    monkeypatch.setitem(sys.modules, "tracedpkg", pkg)
    monkeypatch.setitem(sys.modules, "tracedpkg.inner", inner)

    with Tracer() as tracer:
        assert tracer.patch_function("tracedpkg", "tracedpkg.inner", "helper", "h",
                                     lambda args, kwargs, result: (args[0],)) == 2
        tracer.patch_function("tracedpkg", "tracedpkg.inner", "work", "w")
        assert inner.work(3) == 7 and pkg.helper(1) == 2
        spans = tracer.finished()
    assert [(s.name, s.parent, s.work) for s in spans] == [
        ("w", -1, ()), ("h", 0, (3,)), ("h", -1, (1,))
    ]
    assert (inner.helper, inner.work) == originals and pkg.helper is originals[0]


def test_call_overhead_is_a_small_positive_time():
    assert 0.0 < call_overhead(calls=2000, batches=3) < 1e-3


def test_layer_metrics_of_a_small_trace():
    from layers import layer_metrics

    spans = [
        Span("harness.run_optimize", 0.0, 10.0, -1),
        Span("cnf.parse", 0.0, 1.0, 0),
        Span("cnf.parse", 0.2, 0.8, 1),
        Span("evolve.optimize", 1.0, 7.0, 0),
        Span("evolve.seed_stream", 1.0, 1.1, 3, (2, 0, 0)),
        Span("evolve.fitness", 1.1, 3.0, 3),
        Span("shaping.histogram", 1.5, 2.5, 5),
        Span("cnf.compile", 1.5, 1.7, 6, (0,)),
        Span("cnf.score", 1.7, 2.3, 6, (250, 250 * 91)),
        Span("evolve.seed_stream", 4.0, 4.1, 3, (1, 1)),
        Span("qsim.sample", 7.5, 8.0, 0, (100, 100 * 4)),
        Span("oracle.enumerate", 8.0, 9.0, 0),
        Span("cnf.score", 8.1, 8.9, 11, (16, 16 * 91)),
    ]
    got = layer_metrics(spans, n=4, width=3, ga_slots=3, evolve_tag=1)
    expected = {
        "cnf.parse_s": 1.0,
        "cnf.compile_reuse": 1.0,
        "cnf.score_rows": 266,
        "cnf.score_bytes_computed": 266 * 91 * 3,
        "qsim.sample_bytes_computed": 100 * 4 * 8,
        "shaping.histogram_self_s": 0.2,
        "evolve.evals": 1,
        "evolve.evals_cached": 2,
        "evolve.eval_reuse": 3.0,
        "evolve.generation_s_p50": 3.0,
        "evolve.self_s": 6.0 - 0.1 - 1.9 - 0.1,
        "oracle.assignments_swept": 16,
        "oracle.sweep_reuse": 1.0,
        "harness.final_sample_s": 0.5,
        "harness.oracle_section_s": 1.0,
        "harness.self_s": 10.0 - 1.0 - 6.0 - 0.5 - 1.0,
    }
    assert {k: got[k] for k in expected} == pytest.approx(expected)
