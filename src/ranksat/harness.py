"""Run persistence and reporting.

A run artifact is a single schema-versioned JSON document. Everything that
is a pure function of the instance and the config lives under the "run" key
and is covered by a reproducibility hash; timestamps and tool metadata live
under "meta", outside the hash, so two runs with the same seed produce
byte-identical hashed sections.

The report samples (``run_sample``, the final sample of ``run_optimize`` and
``regenerate_g_histogram``) are one recipe, ``_report_sample``: it hands
``ClauseArrays.scores`` a draw of ``qsim.draw_planes`` shots from the seed's
final-sample stream, which it calls once per block and scores as it comes, so
no (s, n) matrix of bits is held. ``cnf`` alone sizes those blocks, and with
them the shots a stored seed regenerates (see ``ClauseArrays``).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .cnf import CnfFormula, default_params, parse_instance
from .evolve import GaConfig, final_sample_stream, optimize
from .oracle import GUARD_MAX_N, enumerate_h, exact_h_distribution
from .qsim import AngleVector, draw_planes, prepare_state
from .shaping import CostHistogram, nearest_rank_quantile

__all__ = [
    "RUN_SCHEMA",
    "SAMPLE_SCHEMA",
    "canonical_json",
    "repro_hash",
    "run_optimize",
    "run_sample",
    "load_artifact",
    "save_artifact",
    "artifact_angles",
    "artifact_histogram",
    "histogram_summary",
    "improvement_factor",
]

RUN_SCHEMA = "ranksat-run/1"
SAMPLE_SCHEMA = "ranksat-sample/1"
# Entries of "run" that report, compare and sample read, per schema; the
# part before a dot names a section, which must be a JSON object.
_RUN_ENTRIES = {
    RUN_SCHEMA: (
        "instance.path", "instance.sha256", "instance.n", "config.seed", "cost_params",
        "final_sample.h_histogram", "final_sample.shots",
    ),
    SAMPLE_SCHEMA: (
        "instance.path", "instance.sha256", "instance.n", "seed",
        "final_sample.h_histogram", "final_sample.shots",
    ),
}
_ENTRY_TYPES = {"instance.n": int, "config.seed": int, "seed": int,  # JSON integers, not 3.0 or "3"
                "instance.path": str, "instance.sha256": str}  # JSON strings, not 5 or null
FINAL_SHOTS_DEFAULT = 100_000


def _read_instance(path: str) -> tuple[CnfFormula, dict]:
    """The formula of ``path`` and its artifact record (path, sha256, n, m) from one read, so
    a file edited during the run cannot pair one version's hash with another's formula."""
    data = Path(path).read_bytes()
    f = parse_instance(path, data.decode("utf-8"))
    return f, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest(), "n": f.n, "m": f.m}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def repro_hash(run_obj: dict) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(run_obj).encode()).hexdigest()


def _artifact(schema: str, command: str, instance: dict, run: dict) -> dict:
    """Wrap a run section, led by its instance record, with ``meta`` and the hash."""
    run = {"instance": instance, **run}
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "tool_version": __version__,
        "command": command,
        # outside the hash, so report --g-level finds the file from any directory
        "instance_path": str(Path(instance["path"]).resolve()),
    }
    return {"schema": schema, "meta": meta, "run": run, "repro_hash": repro_hash(run)}


def histogram_summary(hist: CostHistogram) -> dict:
    return {
        "p_h0": hist.probability_at(0),
        "mean_h": hist.mean,
        "e_0.1": nearest_rank_quantile(hist.values, hist.cumfreq, 0.1),
        "e_0.5": nearest_rank_quantile(hist.values, hist.cumfreq, 0.5),
    }


def _sample_section(hist: CostHistogram, shots: int) -> dict:
    return {
        "shots": shots,
        "h_histogram": hist.to_json_obj(),
        **histogram_summary(hist),
    }


def _report_sample(f: CnfFormula, angles: AngleVector, seed: int, shots: int,
                   zeta: float | None = None) -> CostHistogram:
    """The h histogram, or with ``zeta`` the cost-g histogram, of ``shots`` shots of the state
    at ``angles`` drawn from the final-sample stream of ``seed``."""
    p1, rng = prepare_state(f.n, angles).p1, final_sample_stream(seed)
    return CostHistogram.from_samples(
        f.arrays.scores(lambda count: draw_planes(p1, count, rng), shots, zeta))


def improvement_factor(final_p0: float, initial: CostHistogram) -> float | None:
    """Ratio of the final h=0 probability to the uniform baseline."""
    baseline = initial.probability_at(0)
    if baseline == 0.0:
        return None
    return final_p0 / baseline


def run_optimize(
    instance_path: str,
    cfg: GaConfig,
    final_shots: int = FINAL_SHOTS_DEFAULT,
    oracle_max_n: int = GUARD_MAX_N,
) -> dict:
    """Optimize angles, draw the final report sample, assemble the artifact."""
    if final_shots < 1:
        raise ValueError(f"shot count must be >= 1, got {final_shots}")
    f, instance = _read_instance(instance_path)
    params = default_params(f)
    best_angles, history = optimize(f, cfg)

    final_section = _sample_section(_report_sample(f, best_angles, cfg.seed, final_shots),
                                    final_shots)

    oracle_section = None
    factor = None
    if f.n <= oracle_max_n:
        initial = enumerate_h(f, max_n=oracle_max_n)
        exact_final = exact_h_distribution(f, best_angles, max_n=oracle_max_n)
        factor = improvement_factor(final_section["p_h0"], initial)
        exact_factor = improvement_factor(exact_final.probability_at(0), initial)
        oracle_section = {
            "initial_h": initial.to_json_obj(),
            "exact_final_h": exact_final.to_json_obj(),
            "p_h0_uniform": initial.probability_at(0),
            "p_h0_exact_final": exact_final.probability_at(0),
            "improvement_factor_exact": exact_factor,
        }

    return _artifact(RUN_SCHEMA, "optimize", instance, {
        "config": cfg.to_json_obj(),
        "cost_params": asdict(params),
        "best_angles": best_angles.to_json_obj(),
        "best_fitness": history[-1]["best_so_far_fitness"],
        "history": history,
        "final_sample": final_section,
        "oracle": oracle_section,
        "improvement_factor": factor,
    })


def run_sample(
    instance_path: str,
    angles: AngleVector,
    shots: int,
    seed: int,
    angles_n: int | None = None,
) -> dict:
    """Sample a fixed-angle state and wrap the histogram in an artifact. ``angles_n``, the n
    recorded with the angles, must be the instance's n if given."""
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    f, instance = _read_instance(instance_path)
    if angles_n is not None and angles_n != f.n:
        raise ValueError(f"artifact was made for n={angles_n} but instance has n={f.n}")
    if angles is None:
        raise ValueError("angles required")
    return _artifact(SAMPLE_SCHEMA, "sample", instance, {
        "angles": angles.to_json_obj(),
        "seed": seed,
        "final_sample": _sample_section(_report_sample(f, angles, seed, shots), shots),
    })


def save_artifact(artifact: dict, path: str) -> None:
    Path(path).write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")


def load_artifact(path: str) -> dict:
    artifact = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(artifact, dict) or not isinstance(artifact.get("run"), dict):
        raise ValueError(f"{path}: an artifact and its 'run' must be JSON objects")
    if artifact.get("schema") not in (RUN_SCHEMA, SAMPLE_SCHEMA):
        raise ValueError(f"{path}: unknown artifact schema {artifact.get('schema')!r}")
    run = artifact["run"]
    if repro_hash(run) != artifact.get("repro_hash"):
        raise ValueError(f"{path}: reproducibility hash does not match contents")
    for entry in _RUN_ENTRIES[artifact["schema"]]:
        section, _, key = entry.rpartition(".")
        obj = run.get(section) if section else run
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: run has no '{section}' object")
        if key not in obj:
            raise ValueError(f"{path}: run has no '{entry}'")
        kind = _ENTRY_TYPES.get(entry)
        if kind is not None and type(obj[key]) is not kind:
            raise ValueError(f"{path}: run entry '{entry}' must be a JSON "
                             f"{'integer' if kind is int else 'string'}, got {obj[key]!r}")
    return artifact


def artifact_angles(artifact: dict) -> AngleVector:
    run = artifact["run"]
    obj = run.get("best_angles") or run.get("angles")
    if obj is None:
        raise ValueError("artifact carries no angles")
    return AngleVector.from_json_obj(obj)


def artifact_histogram(artifact: dict) -> CostHistogram:
    """The stored final-sample h histogram; the stored shots must be a JSON integer >= 1,
    and the counts must sum to it."""
    section = artifact["run"]["final_sample"]
    if type(section["shots"]) is not int or section["shots"] < 1:
        raise ValueError(f"final_sample.shots must be an integer >= 1, "
                         f"got {section['shots']!r}")
    hist = CostHistogram.from_json_obj(section["h_histogram"], name="final_sample.h_histogram")
    if hist.total != section["shots"]:
        raise ValueError(f"final_sample.h_histogram counts {hist.total} shots, "
                         f"but final_sample.shots is {section['shots']!r}")
    return hist


def regenerate_g_histogram(artifact: dict) -> CostHistogram:
    """Rebuild the final sample at g-cost level from the stored seed.

    Sampling is deterministic given the artifact's seed, so the g-level view
    does not need to be stored. A recorded relative path that does not exist
    from the working directory falls back to the absolute path under "meta".
    Raises ValueError when neither exists as recorded, when the instance file
    no longer matches the sha256 recorded in the artifact, or when the
    regenerated shots' h = g // zeta counts differ from the stored h histogram.
    """
    run = artifact["run"]
    path = run["instance"]["path"]
    if not Path(path).exists():
        meta = artifact.get("meta")
        path = meta.get("instance_path") if isinstance(meta, dict) else None
        if not isinstance(path, str):
            raise ValueError(f"{run['instance']['path']} not found, and no meta.instance_path")
    f, instance = _read_instance(path)
    if instance["sha256"] != run["instance"]["sha256"]:
        raise ValueError(f"{path} has changed since the run: its sha256 no longer matches")
    params = default_params(f)
    angles = artifact_angles(artifact)
    stored = artifact_histogram(artifact)
    is_run = artifact["schema"] == RUN_SCHEMA
    if is_run and run["cost_params"] != asdict(params):
        raise ValueError(f"recorded cost_params differ from the fixed weights {params}")
    seed = run["config"]["seed"] if is_run else run["seed"]
    hist = _report_sample(f, angles, seed, stored.total, params.zeta)
    regenerated = CostHistogram.from_samples((hist.values // params.zeta).repeat(hist.counts))
    for h in sorted({*regenerated.values.tolist(), *stored.values.tolist()}):
        if regenerated.count_at(h) != stored.count_at(h):
            raise ValueError(f"regenerated shots do not match the stored h histogram: h={h:g} "
                             f"has {regenerated.count_at(h)} shots, the artifact "
                             f"{stored.count_at(h)} (older sampler?)")
    return hist

