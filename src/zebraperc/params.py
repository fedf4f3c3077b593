"""Shared parameter types for tree percolation computations."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RootMode(enum.Enum):
    """Root-degree convention of the rooted tree."""

    ROOTED_K = "rooted-k"        # root has k children, like every interior vertex
    FULL_CAYLEY = "full-cayley"  # root has k+1 children, interior vertices k

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TreeParams:
    """Branching order and root mode; fixes the combinatorics of everything else."""

    k: int
    root_mode: RootMode = RootMode.ROOTED_K

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"branching order k must be >= 2, got {self.k}")

    @property
    def root_degree(self) -> int:
        return self.k + 1 if self.root_mode is RootMode.FULL_CAYLEY else self.k


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance and iteration cap for iterative solves; each solve states what tol bounds."""

    tol: float = 1e-12
    max_iter: int = 10**6

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


FIXED_POINT_CONFIG = SolverConfig(tol=1e-12, max_iter=10**6)
LIMIT_CONFIG = SolverConfig(tol=1e-10, max_iter=10**5)
BISECTION_CONFIG = SolverConfig(tol=1e-4, max_iter=10**4)
MC_BISECTION_CONFIG = SolverConfig(tol=1 / 256, max_iter=10**4)


def check_probability(value: float, name: str = "p") -> float:
    """Validate a probability argument and return it as a float."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)
