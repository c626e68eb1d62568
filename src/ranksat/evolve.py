"""Genetic-algorithm search over circuit angles.

The population is one (population, 2*depth) float64 gene matrix, each row
``[betas..., gammas...]``, with a list of fitness values beside it. Fitness
is the negated shaped cost estimated from a fresh shot sample, so the GA
maximizes while the method minimizes. Reproducibility contract: a master
seed derives one child stream per purpose — population init, one stream per
generation for all of its selection, crossover and mutation draws (taken
child by child), one stream per (generation, row) fitness evaluation, and
the final report sample — so results cannot depend on evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cnf import CnfFormula
from .qsim import AngleVector, BETA_PERIOD, GAMMA_PERIOD, fill_shots, p_one_rows
from .shaping import QuantileSet, shaped_costs

__all__ = [
    "GaConfig",
    "GenerationRecord",
    "RunHistory",
    "seed_stream",
    "final_sample_stream",
    "evaluate_fitness",
    "tournament_select",
    "crossover",
    "mutate",
    "optimize",
]

# Sub-stream tags hung off the master seed.
_TAG_INIT = 0
_TAG_EVOLVE = 1
_TAG_FITNESS = 2
_TAG_FINAL_SAMPLE = 3


@dataclass(frozen=True)
class GaConfig:
    """GA settings; defaults follow the experimental protocol."""

    generations: int = 150
    population: int = 30
    mutation_prob: float = 0.25
    tournament_size: int = 3
    elites: int = 4
    shots_per_eval: int = 250
    depth: int = 2
    quantile_levels: QuantileSet = field(default_factory=QuantileSet.default)
    seed: int = 1

    def __post_init__(self):
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if not (0.0 <= self.mutation_prob <= 1.0):
            raise ValueError(f"mutation_prob must be in [0, 1], got {self.mutation_prob}")
        if not (1 <= self.tournament_size <= self.population):
            raise ValueError(
                f"tournament_size must be in 1..population, got {self.tournament_size}"
            )
        if not (0 <= self.elites < self.population):
            raise ValueError(
                f"elites must be >= 0 and < population, got {self.elites}"
            )
        if self.shots_per_eval < 1:
            raise ValueError(f"shots_per_eval must be >= 1, got {self.shots_per_eval}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")

    def to_json_obj(self) -> dict:
        return {
            "generations": self.generations,
            "population": self.population,
            "mutation_prob": self.mutation_prob,
            "tournament_size": self.tournament_size,
            "elites": self.elites,
            "shots_per_eval": self.shots_per_eval,
            "depth": self.depth,
            "quantile_levels": list(self.quantile_levels.levels),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_so_far_fitness: float
    best_so_far_angles: AngleVector


@dataclass
class RunHistory:
    records: list[GenerationRecord]

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "generation": r.generation,
                "best_fitness": r.best_fitness,
                "mean_fitness": r.mean_fitness,
                "best_so_far_fitness": r.best_so_far_fitness,
                "best_so_far_angles": r.best_so_far_angles.to_json_obj(),
            }
            for r in self.records
        ]


def seed_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child stream addressed by (seed, path)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _gene_bounds(depth: int) -> tuple[np.ndarray, np.ndarray]:
    highs = np.array([BETA_PERIOD] * depth + [GAMMA_PERIOD] * depth)
    return np.zeros(2 * depth), highs


def _angles_from_genes(genes: np.ndarray, depth: int) -> AngleVector:
    return AngleVector(betas=tuple(genes[:depth].tolist()), gammas=tuple(genes[depth:].tolist()))


def evaluate_fitness(
    f: CnfFormula, angles: AngleVector, cfg: GaConfig, rng: np.random.Generator
) -> float:
    """Negated shaped cost of a shots_per_eval sample at these angles."""
    return _fitness_values(f, np.array([[*angles.betas, *angles.gammas]]), cfg, [rng])[0]


def _fitness_values(
    f: CnfFormula,
    genes: np.ndarray,
    cfg: GaConfig,
    rngs: Sequence[np.random.Generator],
) -> list[float]:
    """evaluate_fitness of each gene row with its own stream, in one pass:
    all states at once, one (P*s, n) shot matrix, one scoring call."""
    s, depth = cfg.shots_per_eval, genes.shape[1] // 2
    p_one = p_one_rows(f.n, genes[:, :depth], genes[:, depth:])
    bits = np.empty((len(genes) * s, f.n), dtype=np.uint8)
    for i, rng in enumerate(rngs):
        fill_shots(bits[i * s:(i + 1) * s], p_one[i], rng)
    costs = f.arrays.g(bits).reshape(len(genes), s)
    return [-cost for cost in shaped_costs(costs, cfg.quantile_levels)]


def tournament_select(fitness: Sequence[float], k: int, rng: np.random.Generator) -> int:
    """Row of the best of k uniform draws with replacement; ties go to the lowest row."""
    if len(fitness) == 0:
        raise ValueError("population is empty")
    drawn = rng.integers(0, len(fitness), size=k)
    return int(min(drawn, key=lambda i: (-fitness[i], i)))


def crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Single-point crossover of two [betas..., gammas...] gene rows."""
    if len(a) != len(b):
        raise ValueError("parents must have equal gene counts")
    cut = int(rng.integers(1, len(a))) if len(a) > 2 else 1
    return np.concatenate([a[:cut], b[cut:]])


def mutate(genes: np.ndarray, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Resample each gene uniformly within its bound with probability prob."""
    if not (0.0 <= prob <= 1.0):
        raise ValueError(f"mutation probability must be in [0, 1], got {prob}")
    lows, highs = _gene_bounds(len(genes) // 2)
    flips = rng.random(len(genes)) < prob
    fresh = rng.uniform(lows, highs)
    return np.where(flips, fresh, genes)


def optimize(f: CnfFormula, cfg: GaConfig) -> tuple[AngleVector, RunHistory]:
    """Run the GA and return the best-so-far angles plus the full history.

    Generation 0 is the uniformly random initial population; each later
    generation copies the elite rows (with cached fitness) and fills the
    rest through tournament selection, crossover and mutation. Fully
    deterministic for a given config.
    """
    size, depth = cfg.population, cfg.depth
    lows, highs = _gene_bounds(depth)
    init_rng = seed_stream(cfg.seed, _TAG_INIT)
    genes = init_rng.uniform(lows, highs, size=(size, 2 * depth))
    fitness: list[float] = []
    order: list[int] = []  # row indices by descending fitness, ties to the lowest
    records: list[GenerationRecord] = []
    best: tuple[float, AngleVector] | None = None

    for t in range(cfg.generations + 1):
        if t:
            ev_rng = seed_stream(cfg.seed, _TAG_EVOLVE, t)
            elites = order[:cfg.elites]
            children = []
            for _ in range(size - len(elites)):
                a = tournament_select(fitness, cfg.tournament_size, ev_rng)
                b = tournament_select(fitness, cfg.tournament_size, ev_rng)
                child = crossover(genes[a], genes[b], ev_rng)
                children.append(mutate(child, cfg.mutation_prob, ev_rng))
            genes = np.vstack([genes[elites], *children])
            fitness = [fitness[i] for i in elites]
        # Each evaluation draws from its own per-(generation, row) stream,
        # so batching them, or evaluating in any order, yields the same result.
        done = len(fitness)
        rngs = [seed_stream(cfg.seed, _TAG_FITNESS, t, i) for i in range(done, size)]
        fitness += _fitness_values(f, genes[done:], cfg, rngs)

        order = sorted(range(size), key=lambda i: (-fitness[i], i))
        top = order[0]
        if best is None or fitness[top] > best[0]:
            best = (fitness[top], _angles_from_genes(genes[top], depth))
        records.append(GenerationRecord(
            generation=t,
            best_fitness=fitness[top],
            mean_fitness=sum(fitness) / size,
            best_so_far_fitness=best[0],
            best_so_far_angles=best[1],
        ))

    return best[1], RunHistory(records=records)


def final_sample_stream(seed: int) -> np.random.Generator:
    """Stream reserved for the post-optimization report sample."""
    return seed_stream(seed, _TAG_FINAL_SAMPLE)
