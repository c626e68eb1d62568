"""Genetic-algorithm search over circuit angles.

The population is one (population, 2*depth) float64 gene matrix, each row
``[betas..., gammas...]``, with a fitness array beside it, both kept sorted
best first (ties keep their previous order). Fitness is the negated shaped
cost estimated from a fresh shot sample, so the GA maximizes while the
method minimizes. Reproducibility contract: a master seed derives one child
stream per purpose — population init, one breeding stream and one fitness
stream per generation, and the final report sample. A breeding stream draws
whole arrays in a fixed order: tournament a, tournament b, cuts (none at
depth 1), flips, fresh values. A fitness stream draws one block of rows*s
shots for the generation's new rows in one draw_planes call, row i reading
shots i*s to (i+1)*s - 1; the best-first population fixes that row order,
so results cannot depend on evaluation order. The block's words are drawn
qubit-major, so a row's shots depend on the whole block it is drawn in,
which the config and the population fix. Each generation appends one
history row, in the layout the run artifact stores.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cnf import CnfFormula, _cost_base
from .qsim import AngleVector, BETA_PERIOD, GAMMA_PERIOD, draw_planes, p_one_rows
from .shaping import QuantileSet, level_shaped_costs

__all__ = [
    "GaConfig",
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
        return {**vars(self), "quantile_levels": list(self.quantile_levels.levels)}


def seed_stream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic child stream addressed by (seed, path), on numpy's default bit generator."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _gene_bounds(depth: int) -> tuple[np.ndarray, np.ndarray]:
    highs = np.array([BETA_PERIOD] * depth + [GAMMA_PERIOD] * depth)
    return np.zeros(2 * depth), highs


def evaluate_fitness(
    f: CnfFormula, angles: AngleVector, cfg: GaConfig, rng: np.random.Generator
) -> float:
    """Negated shaped cost of a shots_per_eval sample at these angles."""
    return _fitness_values(f, np.array([[*angles.betas, *angles.gammas]]), cfg, rng)[0]


def _fitness_values(
    f: CnfFormula, genes: np.ndarray, cfg: GaConfig, rng: np.random.Generator
) -> list[float]:
    """evaluate_fitness of each gene row in one pass: all states at once, one block of P*s
    shots drawn from ``rng`` by one draw_planes call, row i reading shots i*s to (i+1)*s - 1,
    and one unsat block of them, from which come h, each row's exact d-sum and d at the
    quantile h-levels."""
    s, depth = cfg.shots_per_eval, genes.shape[1] // 2
    p1 = p_one_rows(f.n, genes[:, :depth], genes[:, depth:])  # refuses n > 1024 before compiling
    rows, arrays = len(genes) * s, f.arrays
    u = arrays.unsat_matrix(draw_planes(p1, rows, rng), rows)
    h, d_sums = arrays.h_d_sums(u, rows, s)
    costs = level_shaped_costs(h.reshape(-1, s), d_sums, _cost_base(f.m),
                               lambda idx: arrays.d(u, idx), cfg.quantile_levels)
    return [0.0 - cost for cost in costs]  # -cost would turn a cost of 0 into -0.0


def tournament_select(size: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Winners of count k-draw tournaments (with replacement) on a best-first population."""
    if size < 1:
        raise ValueError("population is empty")
    return rng.integers(0, size, (count, k)).min(axis=1)


def crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Single-point crossover of paired (count, 2*depth) parent rows, one cut per child."""
    if a.shape != b.shape:
        raise ValueError("parent arrays must have equal shapes")
    count, width = a.shape
    cuts = rng.integers(1, width, (count, 1)) if width > 2 else 1
    return np.where(np.arange(width) < cuts, a, b)


def mutate(genes: np.ndarray, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Resample each gene of (count, 2*depth) rows uniformly in its bound with probability prob."""
    if not (0.0 <= prob <= 1.0):
        raise ValueError(f"mutation probability must be in [0, 1], got {prob}")
    lows, highs = _gene_bounds(genes.shape[1] // 2)
    flips = rng.random(genes.shape) < prob
    fresh = rng.uniform(lows, highs, genes.shape)
    return np.where(flips, fresh, genes)


def optimize(f: CnfFormula, cfg: GaConfig) -> tuple[AngleVector, list[dict]]:
    """Run the GA and return the best-so-far angles plus one history row per generation.

    Generation 0 is the uniformly random initial population; each later
    generation keeps the elite rows (with cached fitness) and fills the
    rest through tournament selection, crossover and mutation. A row holds
    the generation, its best and mean fitness, and the best-so-far fitness
    and angles, the angles as JSON. Fully deterministic for a given config.
    """
    size, depth, elites = cfg.population, cfg.depth, cfg.elites
    lows, highs = _gene_bounds(depth)
    genes = seed_stream(cfg.seed, _TAG_INIT).uniform(lows, highs, size=(size, 2 * depth))
    fitness = np.empty(0)
    rows: list[dict] = []
    best: tuple[float, AngleVector] | None = None

    for t in range(cfg.generations + 1):
        if t:
            ev_rng = seed_stream(cfg.seed, _TAG_EVOLVE, t)
            a = tournament_select(size, cfg.tournament_size, size - elites, ev_rng)
            b = tournament_select(size, cfg.tournament_size, size - elites, ev_rng)
            children = crossover(genes[a], genes[b], ev_rng)
            genes = np.vstack([genes[:elites], mutate(children, cfg.mutation_prob, ev_rng)])
            fitness = fitness[:elites]
        # the new rows after the elites draw their shots from the generation's one stream
        rng = seed_stream(cfg.seed, _TAG_FITNESS, t)
        fitness = np.concatenate([fitness, _fitness_values(f, genes[len(fitness):], cfg, rng)])

        order = np.argsort(-fitness, kind="stable")
        genes, fitness = genes[order], fitness[order]
        top = float(fitness[0])
        if best is None or top > best[0]:
            row = genes[0].tolist()
            best = (top, AngleVector(betas=tuple(row[:depth]), gammas=tuple(row[depth:])))
        rows.append({
            "generation": t,
            "best_fitness": top,
            "mean_fitness": float(fitness.mean()),
            "best_so_far_fitness": best[0],
            "best_so_far_angles": best[1].to_json_obj(),
        })

    return best[1], rows


def final_sample_stream(seed: int) -> np.random.Generator:
    """Stream reserved for the post-optimization report sample."""
    return seed_stream(seed, _TAG_FINAL_SAMPLE)
