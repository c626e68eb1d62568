"""The four benchmark workloads: one repetition each, plus output checks.

A repetition starts from the instance file, as a user's command would, and
calls only public ranksat functions. Module attributes are looked up at call
time, so the tracer's wrappers see every call.
"""
from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

clock = time.perf_counter

SHAPED_REL_TOL = 0.02   # sampled vs exact shaped cost, as in the acceptance suite
MASS_TOL = 1e-9
CHECK_SHOTS = 100_000


class Checks:
    """Counts attempted operations and output checks, and the failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def __call__(self, name: str, test) -> None:
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception as exc:  # a check that raises is a failed check
            ok, name = False, f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed.append(name)
            print(f"check failed: {name}", file=sys.stderr)


@dataclass
class Context:
    rs: SimpleNamespace      # the ranksat modules
    seed: int
    path: str                # instance file, relative to the working directory
    n: int
    width: int               # literals per clause
    hidden: list[int]        # the planted assignment
    angles: list = field(default_factory=list)
    checks: Checks = field(default_factory=Checks)
    reps: list = field(default_factory=list)


@dataclass
class Rep:
    wall_s: float
    rate: float              # the workload's units of work per second
    out: dict


class Workload:
    name: str
    tag: int                 # keeps instances of different workloads apart
    n: int
    m: int
    rate_name: str
    angle_count = 0

    def draw_angles(self, rs, seed: int) -> list:
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag, 1]))
        return [
            rs.qsim.AngleVector(
                betas=tuple(float(b) for b in rng.uniform(0.0, np.pi, 2)),
                gammas=tuple(float(g) for g in rng.uniform(0.0, 2 * np.pi, 2)),
            )
            for _ in range(self.angle_count)
        ]

    def rep(self, ctx: Context, spans: list, out_path: str) -> Rep:
        raise NotImplementedError

    def check(self, ctx: Context, reps: list[Rep]) -> None:
        raise NotImplementedError

    def report(self, ctx: Context, reps: list[Rep]) -> list[tuple[str, float, str]]:
        return [(self.rate_name, statistics.median(r.rate for r in reps), "1/s")]


def _check_artifacts(ctx: Context, reps: list[Rep]) -> None:
    """Each saved artifact loads, and one seed gives one repro_hash."""
    for i, r in enumerate(reps):
        ctx.checks(
            f"rep {i}: artifact passes load_artifact",
            lambda r=r: ctx.rs.harness.load_artifact(r.out["path"])["repro_hash"]
            == r.out["artifact"]["repro_hash"],
        )
    ctx.checks(
        "repro_hash identical across repeats",
        lambda: len({r.out["artifact"]["repro_hash"] for r in reps}) == 1,
    )


def _histogram_total(section: dict) -> int:
    return sum(row["count"] for row in section["h_histogram"])


class GaRun(Workload):
    """harness.run_optimize with the default protocol, then save_artifact."""

    rate_name = "evals_per_s"

    def __init__(self, name: str, tag: int, n: int, m: int):
        self.name, self.tag, self.n, self.m = name, tag, n, m

    def rep(self, ctx, spans, out_path):
        rs = ctx.rs
        cfg = rs.evolve.GaConfig(seed=ctx.seed)
        mark = len(spans)
        start = clock()
        artifact = rs.harness.run_optimize(ctx.path, cfg)
        rs.harness.save_artifact(artifact, out_path)
        wall = clock() - start
        ctx.checks.ops(2)
        optimize_s = sum(s.duration for s in spans[mark:] if s.name == "evolve.optimize")
        evals = cfg.population + cfg.generations * (cfg.population - cfg.elites)
        return Rep(wall, evals / optimize_s, {
            "artifact": artifact,
            "path": out_path,
            "ga_slots": cfg.population * (cfg.generations + 1),
        })

    def check(self, ctx, reps):
        _check_artifacts(ctx, reps)
        run = reps[0].out["artifact"]["run"]
        final = run["final_sample"]
        ctx.checks(
            "final histogram total equals the shot count",
            lambda: _histogram_total(final) == final["shots"],
        )
        if ctx.n <= ctx.rs.oracle.GUARD_MAX_N:
            oracle = run["oracle"]
            ctx.checks(
                "oracle section: initial counts sum to 2**n, planted h=0 bucket",
                lambda: sum(row["count"] for row in oracle["initial_h"]) == 1 << ctx.n
                and oracle["initial_h"][0]["h"] == 0
                and 0.0 < oracle["p_h0_exact_final"] <= 1.0,
            )
        else:
            ctx.checks("oracle section skipped by the guard", lambda: run["oracle"] is None)

    def report(self, ctx, reps):
        rows = super().report(ctx, reps)
        oracle = reps[0].out["artifact"]["run"]["oracle"]
        if oracle is not None:
            rows.append(("p_h0_exact", oracle["p_h0_exact_final"], "probability"))
        return rows


def unresolved_levels(dist, levels, shots: int) -> int:
    """h-levels a quantile may move across in a sample of ``shots``.

    The nearest-rank quantile jumps to the next h-level when the sampled
    cumulative frequency crosses p, so when the exact cumulative mass at a
    level boundary lies within 5 sigma of p the sample cannot tell the two
    levels apart. Each such level shifts the shaped cost by less than
    2*zeta, as d < zeta; the 2% tolerance alone covers the resolved case.
    """
    cum = np.cumsum(dist.probabilities)
    last = len(cum) - 1
    spanned = 0
    for p in levels:
        band = 5.0 * math.sqrt(p * (1.0 - p) / shots)
        lo = min(int(np.searchsorted(cum, p - band)), last)
        hi = min(int(np.searchsorted(cum, p + band)), last)
        spanned += int(dist.h_values[hi] - dist.h_values[lo])
    return spanned


class OracleRun(Workload):
    """enumerate_h and list_solutions once, then the exact distribution and
    exact shaped cost at each of a seeded set of angle vectors."""

    name, tag, n, m = "oracle-n20", 3, 20, 91
    angle_count = 2
    rate_name = "assignments_per_s"

    def rep(self, ctx, spans, out_path):
        rs = ctx.rs
        oracle_s: list[float] = []

        def call(fn, *args):
            t = clock()
            result = fn(*args)
            oracle_s.append(clock() - t)
            return result

        start = clock()
        f = rs.cnf.load_instance_file(ctx.path)
        params = rs.cnf.default_params(f)
        levels = rs.shaping.QuantileSet.default()
        table = call(rs.oracle.enumerate_h, f)
        solutions = call(rs.oracle.list_solutions, f)
        dists, costs = [], []
        for angles in ctx.angles:
            dists.append(call(rs.oracle.exact_h_distribution, f, angles))
            costs.append(call(rs.oracle.exact_shaped_cost, f, angles, params, levels))
        wall = clock() - start
        ctx.checks.ops(1 + len(oracle_s))
        rate = (1 << f.n) * len(oracle_s) / sum(oracle_s)
        return Rep(wall, rate, {
            "formula": f, "params": params, "levels": levels, "table": table,
            "solutions": solutions, "dists": dists, "costs": costs,
        })

    def check(self, ctx, reps):
        rs, out = ctx.rs, reps[0].out
        f, table = out["formula"], out["table"]
        ctx.checks("enumerate_h counts sum to 2**n", lambda: int(table.counts.sum()) == 1 << f.n)
        ctx.checks(
            "h=0 count equals len(list_solutions)",
            lambda: table.count_at(0) == len(out["solutions"]),
        )
        ctx.checks(
            "solutions contain the planted assignment",
            lambda: ctx.hidden in out["solutions"],
        )
        for k, (angles, dist, cost) in enumerate(zip(ctx.angles, out["dists"], out["costs"])):
            ctx.checks(
                f"angles {k}: exact_h_distribution mass sums to 1",
                lambda dist=dist: abs(float(dist.probabilities.sum()) - 1.0) <= MASS_TOL,
            )

            def sampled_agrees(angles=angles, dist=dist, cost=cost, k=k):
                rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, self.tag, 2, k]))
                shots = rs.qsim.sample(rs.qsim.prepare_state(f.n, angles), CHECK_SHOTS, rng)
                hist = rs.shaping.cost_histogram(f, shots, out["params"])
                sampled = rs.shaping.shaped_cost(hist, out["levels"])
                slack = unresolved_levels(dist, out["levels"], CHECK_SHOTS)
                return abs(sampled - cost) < SHAPED_REL_TOL * cost + slack * 2 * out["params"].zeta

            ctx.checks(
                f"angles {k}: exact_shaped_cost within 2% (plus unresolved h-levels) "
                "of a 100k-shot estimate",
                sampled_agrees,
            )

        def same_as_first(r: Rep) -> bool:
            return (
                r.out["solutions"] == out["solutions"]
                and r.out["costs"] == out["costs"]
                and all(
                    np.array_equal(a.probabilities, b.probabilities)
                    for a, b in zip(r.out["dists"] + [r.out["table"]], out["dists"] + [table])
                )
            )

        ctx.checks("oracle outputs identical across repeats",
                   lambda: all(same_as_first(r) for r in reps[1:]))


class SampleRun(Workload):
    """harness.run_sample at seeded fixed angles, then save_artifact."""

    name, tag, n, m = "sample-n1000", 4, 1000, 4260
    angle_count = 1
    rate_name = "shots_per_s"
    shots = 100_000

    def rep(self, ctx, spans, out_path):
        rs = ctx.rs
        start = clock()
        artifact = rs.harness.run_sample(ctx.path, ctx.angles[0], self.shots, ctx.seed)
        sample_s = clock() - start
        rs.harness.save_artifact(artifact, out_path)
        wall = clock() - start
        ctx.checks.ops(2)
        return Rep(wall, self.shots / sample_s, {"artifact": artifact, "path": out_path})

    def check(self, ctx, reps):
        _check_artifacts(ctx, reps)
        final = reps[0].out["artifact"]["run"]["final_sample"]
        ctx.checks(
            "histogram total equals the shot count",
            lambda: _histogram_total(final) == final["shots"] == self.shots,
        )


WORKLOADS = {
    w.name: w
    for w in (
        GaRun("ga-uf20", 1, 20, 91),
        GaRun("ga-n200", 2, 200, 852),
        OracleRun(),
        SampleRun(),
    )
}
