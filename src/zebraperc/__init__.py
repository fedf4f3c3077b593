"""Percolation engine for rooted Cayley trees.

Computes the standard percolation function and the alternating-path (zebra)
percolation function by three independent routes, one module each: closed
forms, fixed points and the exact finite-depth recursion (analytic), exhaustive
enumeration of small truncations (tree), and seeded Monte-Carlo simulation
(montecarlo, on kernel and rng). params holds the types they share, and
`zebraperc verify` ties the routes together.

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
        "Estimate", "NoBracketError", "estimate_event", "find_critical_dp", "find_critical_mc",
        "sample_tables", "wilson_interval",
    ),
    "params": (
        "FIXED_POINT_CONFIG", "LIMIT_CONFIG", "EventKind", "EventSpec", "RootMode",
        "SolverConfig", "TreeParams", "open_ray", "zebra_count", "zebra_ray",
    ),
    "rng": ("TrialStream", "derive_seed"),
    "tree": (
        "InvalidHatEdgeError", "TooLargeError", "brute_force_probability", "children",
        "hat_edge_decompose", "level_size",
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
