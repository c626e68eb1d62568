"""Which ranksat calls become spans, and the per-layer metrics they give.

Every target is a public function or a ``ClauseArrays`` method. Several
names may share one span name (the three parse entry points, the two
histogram builders); sums over a span name count only the outermost span,
so a call nested in another of the same name is not counted twice.
"""
from __future__ import annotations

import math
import os
import statistics

import numpy as np

from tracer import Span, Tracer, self_times

PACKAGE = "ranksat"
GATHER_ITEM_BYTES = 1  # unsat_matrix gathers uint8 bits: (rows, m, width)
UNIFORM_ITEM_BYTES = 8  # sample draws float64 uniforms: (shots, n)


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _score_work(args, kwargs, result):
    cls_arrays, bits = args[0], _arg(args, kwargs, 1, "bits")
    rows = int(np.shape(bits)[0])
    return rows, rows * cls_arrays.m


def _sample_work(args, kwargs, result):
    state, shots = args[0], int(_arg(args, kwargs, 1, "s"))
    return shots, shots * state.n


def _stream_work(args, kwargs, result):
    return tuple(int(p) for p in args[1:])


def _save_work(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return (os.path.getsize(path),) if os.path.exists(path) else (0,)


class FormulaKeys:
    """Numbers formulas by content, so equal re-parsed formulas share a key."""

    def __init__(self):
        self._by_id: dict[int, tuple[object, int]] = {}
        self._by_content: dict[tuple, int] = {}

    def __call__(self, args, kwargs, result):
        f = _arg(args, kwargs, 1, "f")
        known = self._by_id.get(id(f))
        if known is None or known[0] is not f:
            content = (f.n, tuple(tuple(l.signed for l in c.literals) for c in f.clauses))
            key = self._by_content.setdefault(content, len(self._by_content))
            known = self._by_id[id(f)] = (f, key)  # keep f alive so ids stay unique
        return (known[1],)


# (module, attribute, span name, work counter)
FUNCTIONS = [
    ("cnf", "load_instance_file", "cnf.parse", None),
    ("cnf", "parse_dimacs_file", "cnf.parse", None),
    ("cnf", "parse_dimacs", "cnf.parse", None),
    ("qsim", "prepare_state", "qsim.prepare", None),
    ("qsim", "sample", "qsim.sample", _sample_work),
    ("shaping", "cost_histogram", "shaping.histogram", None),
    ("shaping", "h_histogram", "shaping.histogram", None),
    ("shaping", "shaped_cost", "shaping.objective", None),
    ("evolve", "optimize", "evolve.optimize", None),
    ("evolve", "evaluate_fitness", "evolve.fitness", None),
    ("evolve", "seed_stream", "evolve.seed_stream", _stream_work),
    ("oracle", "enumerate_h", "oracle.enumerate", None),
    ("oracle", "list_solutions", "oracle.solutions", None),
    ("oracle", "exact_h_distribution", "oracle.exact_h", None),
    ("oracle", "exact_g_distribution", "oracle.exact_g", None),
    ("oracle", "exact_shaped_cost", "oracle.exact_shaped", None),
    ("harness", "run_optimize", "harness.run_optimize", None),
    ("harness", "run_sample", "harness.run_sample", None),
    ("harness", "repro_hash", "harness.hash", None),
    ("harness", "save_artifact", "harness.save", _save_work),
]

# (unit, better) of each per-layer metric, in report order.
METRICS = {
    "cnf.parse_s": ("s", "lower"),
    "cnf.compile_calls": ("count", "lower"),
    "cnf.compile_s": ("s", "lower"),
    "cnf.compile_reuse": ("ratio", "higher"),
    "cnf.score_calls": ("count", "lower"),
    "cnf.score_rows": ("count", "lower"),
    "cnf.score_s": ("s", "lower"),
    "cnf.score_bytes_computed": ("bytes", "lower"),
    "qsim.prepare_calls": ("count", "lower"),
    "qsim.prepare_s": ("s", "lower"),
    "qsim.sample_shots": ("count", "lower"),
    "qsim.sample_s": ("s", "lower"),
    "qsim.sample_bytes_computed": ("bytes", "lower"),
    "shaping.histogram_calls": ("count", "lower"),
    "shaping.histogram_self_s": ("s", "lower"),
    "shaping.objective_s": ("s", "lower"),
    "evolve.evals": ("count", "lower"),
    "evolve.evals_cached": ("count", "higher"),
    "evolve.eval_reuse": ("ratio", "higher"),
    "evolve.fitness_s": ("s", "lower"),
    "evolve.generation_s_p50": ("s", "lower"),
    "evolve.generation_s_p90": ("s", "lower"),
    "evolve.self_s": ("s", "lower"),
    "evolve.seed_stream_calls": ("count", "lower"),
    "evolve.seed_stream_s": ("s", "lower"),
    "oracle.enumerate_s": ("s", "lower"),
    "oracle.solutions_s": ("s", "lower"),
    "oracle.exact_h_s": ("s", "lower"),
    "oracle.exact_g_s": ("s", "lower"),
    "oracle.shaped_self_s": ("s", "lower"),
    "oracle.assignments_swept": ("count", "lower"),
    "oracle.sweep_reuse": ("ratio", "higher"),
    "harness.final_sample_s": ("s", "lower"),
    "harness.oracle_section_s": ("s", "lower"),
    "harness.hash_s": ("s", "lower"),
    "harness.save_s": ("s", "lower"),
    "harness.artifact_bytes": ("bytes", "lower"),
    "harness.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def install(tracer: Tracer, rs, only: set[str] | None = None) -> None:
    """Wrap the targets (all, or those whose span name is in ``only``)."""
    for module, attr, name, count in FUNCTIONS:
        if only is None or name in only:
            bound = tracer.patch_function(PACKAGE, f"{PACKAGE}.{module}", attr, name, count)
            if bound == 0:
                raise RuntimeError(f"{PACKAGE}.{module}.{attr} is bound nowhere")
    if only is None:
        arrays = rs.cnf.ClauseArrays
        tracer.patch_method(arrays, "__init__", "cnf.compile", FormulaKeys())
        tracer.patch_method(arrays, "unsat_matrix", "cnf.score", _score_work)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span], n: int, width: int, ga_slots: int, evolve_tag: int
) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (all but trace.overhead_s).

    ``width`` is the literal width of the instance's clauses, ``ga_slots``
    the number of fitness values the GA used (population per generation,
    generation 0 included) and ``evolve_tag`` the seed_stream tag that opens
    each GA generation after the first.
    """
    selfs = self_times(spans)

    def has_ancestor(i: int, test) -> bool:
        p = spans[i].parent
        while p >= 0:
            if test(spans[p].name):
                return True
            p = spans[p].parent
        return False

    def named(name: str, outer: bool = False) -> list[int]:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        if outer:
            idx = [i for i in idx if not has_ancestor(i, name.__eq__)]
        return idx

    def dur(idx: list[int]) -> float:
        return sum((spans[i].duration for i in idx), 0.0)

    def work(idx: list[int], k: int) -> int:
        return sum(spans[i].work[k] for i in idx)

    compile_idx, score_idx = named("cnf.compile"), named("cnf.score")
    sample_idx, fitness_idx = named("qsim.sample"), named("evolve.fitness")
    optimize_idx, stream_idx = named("evolve.optimize"), named("evolve.seed_stream")
    save_idx = named("harness.save")

    def is_oracle(name: str) -> bool:
        return name.startswith("oracle.")

    oracle_calls = [
        i for i, s in enumerate(spans) if is_oracle(s.name) and not has_ancestor(i, is_oracle)
    ]
    swept = sum(
        spans[i].work[0] for i in score_idx if has_ancestor(i, is_oracle)
    )
    run_opt = set(named("harness.run_optimize"))

    def under_run_opt(prefixes: tuple[str, ...]) -> list[int]:
        return [
            i for i, s in enumerate(spans)
            if s.parent in run_opt and s.name.startswith(prefixes)
        ]

    generations = []
    for o in optimize_idx:
        opening = [
            spans[i].start for i in stream_idx
            if spans[i].parent == o and spans[i].work[:1] == (evolve_tag,)
        ]
        edges = [spans[o].start, *opening, spans[o].end]
        generations += [b - a for a, b in zip(edges, edges[1:])]
    evals = len(fitness_idx)

    return {
        "cnf.parse_s": dur(named("cnf.parse", outer=True)),
        "cnf.compile_calls": len(compile_idx),
        "cnf.compile_s": dur(compile_idx),
        "cnf.compile_reuse": _ratio(
            len({spans[i].work[0] for i in compile_idx}), len(compile_idx)
        ),
        "cnf.score_calls": len(score_idx),
        "cnf.score_rows": work(score_idx, 0),
        "cnf.score_s": dur(score_idx),
        "cnf.score_bytes_computed": work(score_idx, 1) * width * GATHER_ITEM_BYTES,
        "qsim.prepare_calls": len(named("qsim.prepare")),
        "qsim.prepare_s": dur(named("qsim.prepare")),
        "qsim.sample_shots": work(sample_idx, 0),
        "qsim.sample_s": dur(sample_idx),
        "qsim.sample_bytes_computed": work(sample_idx, 1) * UNIFORM_ITEM_BYTES,
        "shaping.histogram_calls": len(named("shaping.histogram", outer=True)),
        "shaping.histogram_self_s": sum((selfs[i] for i in named("shaping.histogram")), 0.0),
        "shaping.objective_s": dur(named("shaping.objective", outer=True)),
        "evolve.evals": evals,
        "evolve.evals_cached": ga_slots - evals,
        "evolve.eval_reuse": _ratio(ga_slots, evals),
        "evolve.fitness_s": dur(fitness_idx),
        "evolve.generation_s_p50": statistics.median(generations) if generations else 0.0,
        "evolve.generation_s_p90": _percentile(generations, 0.9),
        "evolve.self_s": sum((selfs[i] for i in optimize_idx), 0.0),
        "evolve.seed_stream_calls": len(stream_idx),
        "evolve.seed_stream_s": dur(stream_idx),
        "oracle.enumerate_s": dur(named("oracle.enumerate")),
        "oracle.solutions_s": dur(named("oracle.solutions")),
        "oracle.exact_h_s": dur(named("oracle.exact_h")),
        "oracle.exact_g_s": dur(named("oracle.exact_g")),
        "oracle.shaped_self_s": sum((selfs[i] for i in named("oracle.exact_shaped")), 0.0),
        "oracle.assignments_swept": swept,
        "oracle.sweep_reuse": _ratio((1 << n) * len(oracle_calls), swept),
        "harness.final_sample_s": dur(under_run_opt(("qsim.", "shaping."))),
        "harness.oracle_section_s": dur(under_run_opt(("oracle.",))),
        "harness.hash_s": dur(named("harness.hash")),
        "harness.save_s": dur(save_idx),
        "harness.artifact_bytes": work(save_idx, 0),
        "harness.self_s": sum(
            (selfs[i] for i in named("harness.run_optimize") + named("harness.run_sample")),
            0.0,
        ),
    }


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]
