"""Percolation engine for rooted Cayley trees.

Computes the standard percolation function and the alternating-path (zebra)
percolation function by three independent routes: closed-form / fixed-point
analysis, exact finite-depth recursion, and Monte-Carlo simulation, with an
exhaustive small-tree oracle tying them together.

Importing the package loads none of its modules. Each name in __all__ is
imported from its home module on first access (PEP 562) and then kept as an
ordinary package attribute, so a command loads only the layers it runs.
"""

import importlib

#: Public names by home module.
_EXPORTS = {
    "analytic": (
        "CriticalPair", "NonConvergenceError", "UnsupportedOrderError", "ZebraDPState",
        "expected_zebra_count", "open_ray_probability", "path_probability",
        "standard_critical", "theta_branch_fixed_point", "theta_closed_form",
        "theta_fixed_point", "theta_inverse", "zebra_critical_pair", "zebra_dp",
        "zebra_limit", "zebra_via_relation",
    ),
    "montecarlo": (
        "Estimate", "EventKind", "EventSpec", "NoBracketError",
        "brute_force_probability", "estimate_event", "find_critical_dp", "find_critical_mc",
        "open_ray", "sample_tables", "wilson_interval", "zebra_count", "zebra_ray",
    ),
    "params": ("FIXED_POINT_CONFIG", "LIMIT_CONFIG", "RootMode", "SolverConfig", "TreeParams"),
    "rng": ("TrialStream", "derive_seed"),
    "tree": (
        "InvalidHatEdgeError", "TooLargeError", "children", "hat_edge_decompose", "level_size",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
