"""Genetic-algorithm search over circuit angles.

Fitness is the negated shaped cost estimated from a fresh shot sample, so
the GA maximizes while the method minimizes. Reproducibility contract: a
master seed derives one child stream per purpose — population init, the
evolution operators of each generation, one stream per (generation,
individual) fitness evaluation, and the final report sample — so results
cannot depend on evaluation order.
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
    "Individual",
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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GaConfig":
        kwargs = dict(obj)
        kwargs["quantile_levels"] = QuantileSet.of(kwargs["quantile_levels"])
        return cls(**kwargs)


@dataclass
class Individual:
    """One candidate angle vector with its cached (lazily set) fitness."""

    angles: AngleVector
    fitness: float | None = None

    @property
    def evaluated(self) -> bool:
        return self.fitness is not None


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


def _genes(angles: AngleVector) -> np.ndarray:
    return np.array([*angles.betas, *angles.gammas], dtype=np.float64)


def _angles_from_genes(genes: Sequence[float], depth: int) -> AngleVector:
    return AngleVector(
        betas=tuple(float(g) for g in genes[:depth]),
        gammas=tuple(float(g) for g in genes[depth:]),
    )


def evaluate_fitness(
    f: CnfFormula, angles: AngleVector, cfg: GaConfig, rng: np.random.Generator
) -> float:
    """Negated shaped cost of a shots_per_eval sample at these angles."""
    return _fitness_values(f, [angles], cfg, [rng])[0]


def _fitness_values(
    f: CnfFormula,
    angles: Sequence[AngleVector],
    cfg: GaConfig,
    rngs: Sequence[np.random.Generator],
) -> list[float]:
    """evaluate_fitness of each angle vector with its own stream, in one pass:
    all states at once, one (P*s, n) shot matrix, one scoring call."""
    s = cfg.shots_per_eval
    p_one = p_one_rows(f.n, angles)
    bits = np.empty((len(angles) * s, f.n), dtype=np.uint8)
    for i, rng in enumerate(rngs):
        fill_shots(bits[i * s:(i + 1) * s], p_one[i], rng)
    costs = f.arrays.g(bits).reshape(len(angles), s)
    return [-cost for cost in shaped_costs(costs, cfg.quantile_levels)]


def tournament_select(
    population: Sequence[Individual], k: int, rng: np.random.Generator
) -> Individual:
    """Best of k uniform draws with replacement; ties go to the lowest index."""
    if not population:
        raise ValueError("population is empty")
    drawn = rng.integers(0, len(population), size=k)
    best = min(drawn, key=lambda i: (-population[i].fitness, i))
    return population[best]


def crossover(
    parent_a: Individual, parent_b: Individual, rng: np.random.Generator
) -> Individual:
    """Single-point crossover on the flattened [betas..., gammas...] genes."""
    depth = parent_a.angles.depth
    if parent_b.angles.depth != depth:
        raise ValueError("parents must have equal gene counts")
    a, b = _genes(parent_a.angles), _genes(parent_b.angles)
    cut = int(rng.integers(1, 2 * depth)) if depth > 1 else 1
    child = np.concatenate([a[:cut], b[cut:]])
    return Individual(angles=_angles_from_genes(child, depth))


def mutate(ind: Individual, prob: float, rng: np.random.Generator) -> Individual:
    """Resample each gene uniformly within its bound with probability prob."""
    if not (0.0 <= prob <= 1.0):
        raise ValueError(f"mutation probability must be in [0, 1], got {prob}")
    depth = ind.angles.depth
    lows, highs = _gene_bounds(depth)
    genes = _genes(ind.angles)
    flips = rng.random(2 * depth) < prob
    fresh = rng.uniform(lows, highs)
    genes = np.where(flips, fresh, genes)
    return Individual(angles=_angles_from_genes(genes, depth))


def _elite_indices(population: Sequence[Individual], elites: int) -> list[int]:
    order = sorted(
        range(len(population)), key=lambda i: (-population[i].fitness, i)
    )
    return order[:elites]


def _evaluate_generation(
    f: CnfFormula, population: list[Individual], cfg: GaConfig, generation: int
) -> None:
    # Each evaluation draws from its own per-(generation, individual) stream,
    # so batching them, or evaluating in any order, yields the same result.
    todo = [i for i, ind in enumerate(population) if not ind.evaluated]
    rngs = [seed_stream(cfg.seed, _TAG_FITNESS, generation, i) for i in todo]
    fitness = _fitness_values(f, [population[i].angles for i in todo], cfg, rngs)
    for i, value in zip(todo, fitness):
        population[i].fitness = value


def _record(
    population: Sequence[Individual],
    generation: int,
    best_so_far: Individual | None,
) -> tuple[GenerationRecord, Individual]:
    best_idx = min(
        range(len(population)), key=lambda i: (-population[i].fitness, i)
    )
    gen_best = population[best_idx]
    if best_so_far is None or gen_best.fitness > best_so_far.fitness:
        best_so_far = Individual(gen_best.angles, gen_best.fitness)
    mean = sum(ind.fitness for ind in population) / len(population)
    rec = GenerationRecord(
        generation=generation,
        best_fitness=gen_best.fitness,
        mean_fitness=mean,
        best_so_far_fitness=best_so_far.fitness,
        best_so_far_angles=best_so_far.angles,
    )
    return rec, best_so_far


def optimize(f: CnfFormula, cfg: GaConfig) -> tuple[AngleVector, RunHistory]:
    """Run the GA and return the best-so-far angles plus the full history.

    Generation 0 is the uniformly random initial population; each later
    generation copies the elites (with cached fitness) and fills the rest
    through tournament selection, crossover and mutation. Fully
    deterministic for a given config.
    """
    lows, highs = _gene_bounds(cfg.depth)
    init_rng = seed_stream(cfg.seed, _TAG_INIT)
    population = [
        Individual(angles=_angles_from_genes(init_rng.uniform(lows, highs), cfg.depth))
        for _ in range(cfg.population)
    ]
    _evaluate_generation(f, population, cfg, generation=0)
    rec, best_so_far = _record(population, 0, None)
    records = [rec]

    for t in range(1, cfg.generations + 1):
        ev_rng = seed_stream(cfg.seed, _TAG_EVOLVE, t)
        next_pop = [
            Individual(population[i].angles, population[i].fitness)
            for i in _elite_indices(population, cfg.elites)
        ]
        while len(next_pop) < cfg.population:
            parent_a = tournament_select(population, cfg.tournament_size, ev_rng)
            parent_b = tournament_select(population, cfg.tournament_size, ev_rng)
            child = mutate(crossover(parent_a, parent_b, ev_rng), cfg.mutation_prob, ev_rng)
            next_pop.append(child)
        population = next_pop
        _evaluate_generation(f, population, cfg, generation=t)
        rec, best_so_far = _record(population, t, best_so_far)
        records.append(rec)

    return best_so_far.angles, RunHistory(records=records)


def final_sample_stream(seed: int) -> np.random.Generator:
    """Stream reserved for the post-optimization report sample."""
    return seed_stream(seed, _TAG_FINAL_SAMPLE)
