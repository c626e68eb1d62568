import csv
import os
from pathlib import Path

import numpy as np
import pytest

import ranksat as rs

from dense_reference import bit_planes

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def widget() -> rs.CnfFormula:
    return rs.parse_dimacs_file(str(DATA / "widget.cnf"))


@pytest.fixture(scope="session")
def widget_path() -> str:
    return str(DATA / "widget.cnf")


def _satlib_dir() -> Path | None:
    candidates = []
    env = os.environ.get("RANKSAT_SATLIB_DIR")
    if env:
        candidates.append(Path(env))
    root = Path(__file__).resolve().parent.parent
    candidates += [root / "data" / "uf20-91", DATA / "uf20-91"]
    for cand in candidates:
        if cand.is_dir() and (cand / "uf20-01.cnf").exists():
            return cand
    return None


def satlib_instance(name: str) -> Path:
    """Path to a SATLIB uf20-91 instance, or skip when the set is absent."""
    directory = _satlib_dir()
    if directory is None:
        pytest.skip(
            f"SATLIB instance {name} not available: place the uf20-91 .cnf files "
            "in data/uf20-91/, tests/data/uf20-91/ or $RANKSAT_SATLIB_DIR"
        )
    path = directory / name
    if not path.exists():
        pytest.skip(f"{name} missing from {directory}")
    return path


def load_count_csv(name: str) -> list[tuple[int, int]]:
    """(h, count) rows from a checked-in reference distribution."""
    with open(DATA / name, newline="") as fh:
        reader = csv.DictReader(fh)
        return [(int(row["h"]), int(row["count"])) for row in reader]


def load_percent_csv(name: str) -> list[tuple[int, float]]:
    with open(DATA / name, newline="") as fh:
        reader = csv.DictReader(fh)
        return [(int(row["h"]), float(row["percent"])) for row in reader]


def random_formula(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    k: int = 3,
) -> rs.CnfFormula:
    """Uniform random k-SAT formula (distinct variables per clause)."""
    if n is None:
        n = int(rng.integers(3, 9))
    if m is None:
        m = int(rng.integers(1, 3 * n))
    clauses = []
    for _ in range(m):
        width = min(k, n)
        variables = rng.choice(n, size=width, replace=False) + 1
        signs = rng.integers(0, 2, size=width) * 2 - 1
        clauses.append([int(v * s) for v, s in zip(variables, signs)])
    return rs.CnfFormula.from_signed(n, clauses)


def all_assignments(n: int) -> np.ndarray:
    """(2**n, n) matrix of every assignment, ascending rank order."""
    from ranksat.qsim import bits_from_ranks

    return bits_from_ranks(np.arange(1 << n), n)


def scored(f: rs.CnfFormula, bits) -> tuple[np.ndarray, np.ndarray]:
    """Per-row h and d of the (s, n) 0/1 matrix ``bits``, from one unsat block of its
    reference planes."""
    u = f.arrays.unsat_matrix(bit_planes(bits), len(bits))
    return f.arrays.h(u, len(bits)), f.arrays.d(u, np.arange(len(bits)))
