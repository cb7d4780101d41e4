from functools import lru_cache

from mvmeixner.model import ModelParams, enumerate_lattice
from mvmeixner.spectral import SpectralData, solve

# Desk-scale instances used across the suite: distinct rates per dimension.
C_BY_N = {1: (0.5,), 2: (0.2, 0.3), 3: (0.1, 0.2, 0.3)}
BETAS = (0.7, 1.5)


@lru_cache(maxsize=None)
def instance(n: int, beta: float) -> tuple[ModelParams, SpectralData]:
    p = ModelParams(beta, C_BY_N[n])
    return p, solve(p)


def lattice_index(n: int, S: int) -> dict[tuple[int, ...], int]:
    """Oracle for model.lattice_rank: each point's position in
    enumerate_lattice(n, S)."""
    return {x: i for i, x in enumerate(enumerate_lattice(n, S))}


def unit_shift(x: tuple[int, ...], j: int, step: int) -> tuple[int, ...]:
    """x + step * e_j. For step=-1 the caller must ensure x[j] >= 1."""
    return x[:j] + (x[j] + step,) + x[j + 1:]


def all_instances() -> list[tuple[ModelParams, SpectralData]]:
    return [instance(n, beta) for n in (1, 2, 3) for beta in BETAS]
