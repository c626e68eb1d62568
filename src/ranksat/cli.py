"""Command-line front end.

Verbs: validate, enumerate, optimize, sample, report, compare.
Exit codes: 0 success, 1 runtime error (resource guard),
2 input error (parse errors, bad config, mismatched artifacts).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cnf import DimacsError, load_instance_file
from .evolve import GaConfig
from .harness import (
    FINAL_SHOTS_DEFAULT,
    artifact_angles,
    artifact_histogram,
    histogram_summary,
    load_artifact,
    regenerate_g_histogram,
    run_optimize,
    run_sample,
    save_artifact,
)
from .oracle import GUARD_MAX_N, GuardError, enumerate_h
from .qsim import AngleVector
from .shaping import CostHistogram, QuantileSet, rows_to_csv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2
_HISTORY_FIELDS = ("generation", "best_fitness", "mean_fitness", "best_so_far_fitness")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    f = load_instance_file(args.instance)
    lit_counts = [len(c.literals) for c in f.clauses]
    print(f"n={f.n} m={f.m}")
    if f.m:
        print(
            f"literals: total={sum(lit_counts)} "
            f"min={min(lit_counts)} max={max(lit_counts)} "
            f"mean={sum(lit_counts) / f.m:.3f}"
        )
    return EXIT_OK


def cmd_enumerate(args) -> int:
    f = load_instance_file(args.instance)
    table = enumerate_h(f, max_n=args.max_n)
    if args.format == "json":
        _emit(json.dumps(table.to_json_obj(), indent=2) + "\n", args.out)
    else:
        _emit(table.to_csv(), args.out)
    return EXIT_OK


def _config_from_args(args) -> GaConfig:
    return GaConfig(
        generations=args.generations,
        population=args.population,
        mutation_prob=args.mutation_prob,
        tournament_size=args.tournament_size,
        elites=args.elites,
        shots_per_eval=args.shots,
        depth=args.depth,
        quantile_levels=QuantileSet.parse(args.quantiles),
        seed=args.seed,
    )


def cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    artifact = run_optimize(
        args.instance,
        cfg,
        final_shots=args.final_shots,
        oracle_max_n=args.max_n,
    )
    save_artifact(artifact, args.out)
    run = artifact["run"]
    print(f"best shaped cost: {0.0 - run['best_fitness']:.6g}")  # not -0 for a cost of 0
    print("final distribution:")
    for row in run["final_sample"]["h_histogram"]:
        print(f"  h={row['h']:>3}  count={row['count']:>7}  p={100 * row['probability']:.3f}%")
    factor = run["improvement_factor"]
    if factor is not None:
        print(f"improvement factor P(h=0)/uniform: {factor:.6g}")
    else:
        print("improvement factor: n/a (oracle disabled or instance unsatisfiable)")
    print(f"artifact written to {args.out}")
    return EXIT_OK


def _load_angles(path: str) -> tuple[AngleVector, dict | None]:
    """Angles from a run/sample artifact or a bare JSON angle array."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(obj, list):
        return AngleVector.from_json_obj(obj), None
    artifact = load_artifact(path)
    return artifact_angles(artifact), artifact


def cmd_sample(args) -> int:
    angles, source = _load_angles(args.angles)
    recorded_n = None if source is None else source["run"]["instance"]["n"]
    artifact = run_sample(args.instance, angles, shots=args.shots, seed=args.seed,
                          angles_n=recorded_n)
    hist = artifact_histogram(artifact)
    _emit(hist.to_csv(), args.out_hist)
    if args.out:
        save_artifact(artifact, args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    if args.g_level and args.what != "final":
        return _fail(f"--g-level applies only to --what final, not {args.what}", EXIT_INPUT)
    artifact = load_artifact(args.artifact)
    run = artifact["run"]
    label = "g" if args.g_level else "h"
    if args.what == "final":
        hist = regenerate_g_histogram(artifact) if args.g_level else artifact_histogram(artifact)
        rows = hist.to_json_obj(label)
    elif args.what == "initial":
        oracle = run.get("oracle")
        if not oracle:
            return _fail("artifact has no oracle section", EXIT_INPUT)
        if not isinstance(oracle, dict):
            raise ValueError(f"oracle must be a JSON object, got {oracle!r}")
        hist = CostHistogram.from_json_obj(oracle.get("initial_h"), name="oracle.initial_h")
        n = run["instance"]["n"]
        if not (type(n) is int and 0 <= n < 63 and hist.total == 1 << n):
            raise ValueError(f"oracle.initial_h counts {hist.total} assignments, "
                             f"but instance.n is {n!r}")
        rows = hist.to_json_obj(label)  # probabilities and cumfreq re-derived from the counts
    else:  # history
        rows = run.get("history")
        if rows is None:
            return _fail("artifact has no history section", EXIT_INPUT)
        if not isinstance(rows, list) or not all(
                isinstance(r, dict) and all(k in r for k in _HISTORY_FIELDS) for r in rows):
            raise ValueError(f"history must be a list of objects with {', '.join(_HISTORY_FIELDS)}")
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.out)
    elif args.what == "history":
        lines = [",".join(_HISTORY_FIELDS)] + [",".join(repr(r[k]) for k in _HISTORY_FIELDS)
                                              for r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(rows_to_csv(rows, label), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    art_a = load_artifact(args.artifact_a)
    art_b = load_artifact(args.artifact_b)
    sha_a = art_a["run"]["instance"]["sha256"]
    sha_b = art_b["run"]["instance"]["sha256"]
    if sha_a != sha_b:
        raise ValueError("artifacts refer to different instances")
    hist_a = artifact_histogram(art_a)
    hist_b = artifact_histogram(art_b)
    lines = ["h,count_a,probability_a,count_b,probability_b"]
    for h in sorted({*hist_a.values.tolist(), *hist_b.values.tolist()}):
        lines.append(f"{int(h)},{hist_a.count_at(h)},{hist_a.probability_at(h):.9g},"
                     f"{hist_b.count_at(h)},{hist_b.probability_at(h):.9g}")
    _emit("\n".join(lines) + "\n", args.out)
    sum_a = histogram_summary(hist_a)
    sum_b = histogram_summary(hist_b)
    for key in ("p_h0", "e_0.1", "e_0.5", "mean_h"):
        print(f"{key}: a={sum_a[key]:.6g} b={sum_b[key]:.6g}")
    return EXIT_OK


def _add_ga_flags(p: argparse.ArgumentParser) -> None:
    defaults = GaConfig()
    p.add_argument("--generations", type=int, default=defaults.generations)
    p.add_argument("--population", type=int, default=defaults.population)
    p.add_argument("--mutation-prob", type=float, default=defaults.mutation_prob)
    p.add_argument("--tournament-size", type=int, default=defaults.tournament_size)
    p.add_argument("--elites", type=int, default=defaults.elites)
    p.add_argument("--shots", type=int, default=defaults.shots_per_eval,
                   help="shots per fitness evaluation")
    p.add_argument("--depth", type=int, default=defaults.depth)
    p.add_argument(
        "--quantiles",
        default=",".join(map(str, defaults.quantile_levels)),
        help="comma-separated quantile levels of the shaped cost",
    )
    p.add_argument("--seed", type=int, default=defaults.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ranksat",
        description="Rank-phase QAOA workbench for 3-SAT/MaxSAT instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse an instance and print a summary")
    p.add_argument("instance")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("enumerate", help="exact initial h-distribution by enumeration")
    p.add_argument("instance")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--max-n", type=int, default=GUARD_MAX_N)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("optimize", help="GA search for circuit angles")
    p.add_argument("instance")
    _add_ga_flags(p)
    p.add_argument("--final-shots", type=int, default=FINAL_SHOTS_DEFAULT)
    p.add_argument("--max-n", type=int, default=GUARD_MAX_N,
                   help="oracle guard; larger n only disables the embedded oracle section")
    p.add_argument("--out", required=True, help="artifact JSON path")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("sample", help="sample a stored angle vector afresh")
    p.add_argument("instance")
    p.add_argument("--angles", required=True,
                   help="run/sample artifact or bare JSON angle array")
    p.add_argument("--shots", type=int, default=FINAL_SHOTS_DEFAULT)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write a sample artifact here")
    p.add_argument("--out-hist", default=None, help="histogram CSV path (default stdout)")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("report", help="emit artifact sections as CSV/JSON")
    p.add_argument("artifact")
    p.add_argument("--what", choices=("final", "initial", "history"), default="final")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--g-level", action="store_true",
                   help="with --what final: emit the g-cost histogram instead of the h projection")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("compare", help="side-by-side histograms of two artifacts")
    p.add_argument("artifact_a")
    p.add_argument("artifact_b")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DimacsError as exc:
        return _fail(str(exc), EXIT_INPUT)
    except GuardError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    except (RuntimeError, OSError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
