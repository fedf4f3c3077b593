"""What every route shares: the tree (TreeParams), the event (EventSpec), the solves (SolverConfig).

An EventSpec, built by open_ray, zebra_ray or zebra_count, is what the
oracle (tree) and the estimators (montecarlo) both evaluate. Records are
namedtuple subclasses with empty __slots__: immutable, compared, hashed and
printed by their fields, and cheap to create at import. __new__ validates.

TooLargeError and NoBracketError live here, so that the CLI maps them to exit
codes 4 and 5 without importing tree and montecarlo, which raise them; the
package exports them from there, as the same objects.
"""

from __future__ import annotations

import enum
from collections import namedtuple


class RootMode(enum.Enum):
    """Root-degree convention of the rooted tree."""

    ROOTED_K = "rooted-k"        # root has k children, like every interior vertex
    FULL_CAYLEY = "full-cayley"  # root has k+1 children, interior vertices k

    def __str__(self) -> str:
        return self.value


class TooLargeError(ValueError):
    """The truncation is too large for exhaustive treatment."""


class NoBracketError(RuntimeError):
    """The transition indicator does not change over the initial bracket."""


class TreeParams(namedtuple("TreeParams", "k root_mode")):
    """Branching order and root mode; fixes the combinatorics of everything else."""

    __slots__ = ()

    def __new__(cls, k: int, root_mode: RootMode = RootMode.ROOTED_K):
        if k < 2:
            raise ValueError(f"branching order k must be >= 2, got {k}")
        return super().__new__(cls, k, root_mode)

    @property
    def root_degree(self) -> int:
        return self.k + 1 if self.root_mode is RootMode.FULL_CAYLEY else self.k


class EventKind(enum.Enum):
    OPEN_RAY = "open"
    ZEBRA_RAY = "zebra"
    ZEBRA_COUNT = "zebra-count"


class EventSpec(namedtuple("EventSpec", "kind depth")):
    """A depth-truncated percolation event from the root."""

    __slots__ = ()

    def __new__(cls, kind: EventKind, depth: int):
        if depth < 1:
            raise ValueError(f"event depth must be >= 1, got {depth}")
        return super().__new__(cls, kind, depth)


def open_ray(depth: int) -> EventSpec:
    return EventSpec(EventKind.OPEN_RAY, depth)


def zebra_ray(depth: int) -> EventSpec:
    return EventSpec(EventKind.ZEBRA_RAY, depth)


def zebra_count(depth: int) -> EventSpec:
    return EventSpec(EventKind.ZEBRA_COUNT, depth)


class SolverConfig(namedtuple("SolverConfig", "tol max_iter")):
    """Tolerance and iteration cap for iterative solves; each solve states what tol bounds."""

    __slots__ = ()

    def __new__(cls, tol: float = 1e-12, max_iter: int = 10**6):
        if not tol > 0:
            raise ValueError(f"tol must be positive, got {tol}")
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        return super().__new__(cls, tol, max_iter)


FIXED_POINT_CONFIG = SolverConfig(tol=1e-12, max_iter=10**6)
LIMIT_CONFIG = SolverConfig(tol=1e-10, max_iter=10**5)
#: Bracket widths at which the threshold bisections stop.
BISECTION_TOL = 1e-4
MC_BISECTION_TOL = 1 / 256


def check_probability(value: float, name: str = "p") -> float:
    """Validate a probability argument and return it as a float."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return float(value)
