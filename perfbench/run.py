"""ranksat benchmark runner.

    python3 perfbench/run.py --workload ga-uf20 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The workload's instance is generated from ``--seed`` and
written as DIMACS to a scratch directory under ``.perfbench_work``.

``--trace 0`` measures set-up several times in fresh interpreters, then
repeats the workload, at least twice, until ``--seconds`` is used up and
prints the end-to-end metrics. ``--trace 1`` runs one untraced and one
traced repetition and prints the per-layer metrics; the spans are written to
``.perfbench_work/trace-<workload>-s<seed>.json``. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit status: 0 when every check passed, 1 when
a check failed, 2 when the checkout or the arguments are unusable.
"""
from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP for every process the benchmark runs; set
# before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import layers  # noqa: E402
import tracer as tr  # noqa: E402
from instances import K, planted_ksat, write_instance  # noqa: E402
from workloads import WORKLOADS, Context, Rep  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("cnf", "qsim", "shaping", "evolve", "oracle", "harness", "cli")
SETUP_LAUNCHES = 7
SETUP_CHILD = (
    "import sys, time\n"
    "from ranksat.cnf import load_instance_file\n"
    "load_instance_file(sys.argv[1])\n"
    "print(time.monotonic())\n"
)


class UnusableCheckout(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import ranksat from this checkout's src, never from elsewhere."""
    if not (SRC / "ranksat" / "__init__.py").is_file():
        raise UnusableCheckout(f"no ranksat package under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"ranksat.{name}") for name in MODULES}
    origin = Path(mods["cnf"].__file__).resolve()
    if SRC not in origin.parents:
        raise UnusableCheckout(f"ranksat was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def measure_setup(instance: Path) -> float:
    """Median time from a fresh interpreter to ranksat imported and the
    instance parsed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(instance)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
    }
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu"] = next(
            line.split(":", 1)[1].strip()
            for line in cpuinfo.splitlines() if line.startswith("model name")
        )
    except (OSError, StopIteration):
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return info


@contextmanager
def working_directory(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run_rep(workload, ctx: Context, trace_all: bool, index: int) -> tuple[Rep, list]:
    """One repetition under a tracer: all layers, or only the optimize timer
    the GA throughput needs."""
    with tr.Tracer() as tracer:
        layers.install(tracer, ctx.rs, None if trace_all else {"evolve.optimize"})
        rep = workload.rep(ctx, tracer.spans, f"artifact-{index}.json")
    return rep, tracer.finished()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        rs = import_program()
    except (UnusableCheckout, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-s{args.seed}-", dir=WORK))
    try:
        return measure(workload, rs, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, rs, args, scratch: Path) -> int:
    hidden, clauses = planted_ksat([args.seed, workload.tag], workload.n, workload.m)
    # The program records the instance path in the hashed run section, so a
    # fixed relative name keeps repro_hash comparable between runs.
    name = "instance.cnf"
    sha256 = write_instance(scratch / name, workload.n, clauses)
    ctx = Context(
        rs=rs, seed=args.seed, path=name, n=workload.n, width=K, hidden=hidden,
        angles=workload.draw_angles(rs, args.seed),
    )
    print(f"workload {workload.name} seed {args.seed} n={workload.n} m={workload.m} "
          f"instance sha256 {sha256}")
    print("machine " + json.dumps(machine(), sort_keys=True))

    with working_directory(scratch):
        f = rs.cnf.load_instance_file(name)
        ctx.checks("planted assignment satisfies the parsed instance",
                   lambda: rs.cnf.h_count(f, hidden) == 0)
        if args.trace:
            metrics = traced(workload, ctx)
        else:
            metrics = untraced(workload, ctx, args.seconds, scratch / name)
        workload.check(ctx, ctx.reps)

    for r in ctx.reps:
        if "artifact" in r.out:
            print(f"repro_hash {r.out['artifact']['repro_hash']}")
    failed = len(ctx.checks.failed)
    if not args.trace:
        for metric, value, unit in workload.report(ctx, ctx.reps):
            print(f"metric {metric} = {value!r} {unit}")
        print(f"metric error_rate = {failed / ctx.checks.attempted!r} ratio")
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": ctx.checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def untraced(workload, ctx: Context, seconds: float, instance: Path) -> dict:
    """Set-up, then whole repetitions while at least half of the next one is
    expected to fit in ``seconds``; at least two, so that the checks compare
    repeats. A run therefore measures at most about ``seconds`` plus half a
    repetition, or two repetitions."""
    setup_s = measure_setup(instance)
    start = time.perf_counter()
    while True:
        rep, _ = run_rep(workload, ctx, False, len(ctx.reps))
        ctx.reps.append(rep)
        typical = statistics.median(r.wall_s for r in ctx.reps)
        if len(ctx.reps) >= 2 and time.perf_counter() - start + typical / 2 > seconds:
            break
    print(f"repetitions {len(ctx.reps)} wall_s "
          + " ".join(f"{r.wall_s:.4f}" for r in ctx.reps))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall_s for r in ctx.reps), "s"),
        "work_per_s": (statistics.median(r.rate for r in ctx.reps), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload, ctx: Context) -> dict:
    """One untraced and one traced repetition; per-layer metrics. The
    tracer's overhead is the span count times the calibrated cost of one
    wrapped call."""
    plain, _ = run_rep(workload, ctx, False, 0)
    rep, spans = run_rep(workload, ctx, True, 1)
    ctx.reps = [plain, rep]
    values = layers.layer_metrics(
        spans, ctx.n, ctx.width, rep.out.get("ga_slots", 0),
        ctx.rs.evolve._TAG_EVOLVE,
    )
    values["trace.overhead_s"] = len(spans) * tr.call_overhead()
    out = WORK / f"trace-{workload.name}-s{ctx.seed}.json"
    out.write_text(json.dumps(tr.to_json_obj(spans)))
    print(f"spans {len(spans)} written to {out.relative_to(ROOT)}")
    return {k: (values[k], unit) for k, (unit, _) in layers.METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
