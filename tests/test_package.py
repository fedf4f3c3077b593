import importlib

import pytest

import zebraperc
from zebraperc import (
    CriticalPair,
    Estimate,
    EventKind,
    EventSpec,
    RootMode,
    SolverConfig,
    TreeParams,
    ZebraDPState,
)
from zebraperc.cli import CurvePoint

#: The package's public names by home module, in the order the package lists them.
EXPORTS = {
    "analytic": [
        "CriticalPair", "NonConvergenceError", "UnsupportedOrderError", "ZebraDPState",
        "expected_zebra_count", "open_ray_probability", "path_probability",
        "standard_critical", "theta_branch_fixed_point", "theta_closed_form",
        "theta_fixed_point", "theta_inverse", "zebra_critical_pair", "zebra_dp",
        "zebra_limit", "zebra_via_relation",
    ],
    "montecarlo": [
        "Estimate", "NoBracketError", "estimate_event", "find_critical_dp", "find_critical_mc",
        "sample_tables", "wilson_interval",
    ],
    "params": [
        "FIXED_POINT_CONFIG", "LIMIT_CONFIG", "EventKind", "EventSpec", "RootMode",
        "SolverConfig", "TreeParams", "open_ray", "zebra_count", "zebra_ray",
    ],
    "rng": ["TrialStream", "derive_seed"],
    "tree": [
        "InvalidHatEdgeError", "TooLargeError", "brute_force_probability", "children",
        "hat_edge_decompose", "level_size",
    ],
}


class TestPackageSurface:
    def test_all_lists_the_public_names(self):
        assert zebraperc.__all__ == [name for names in EXPORTS.values() for name in names]

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from zebraperc import *", namespace)
        assert set(zebraperc.__all__) <= set(namespace)

    @pytest.mark.parametrize("home,name", [(h, n) for h, names in EXPORTS.items() for n in names])
    def test_name_is_its_home_module_object(self, home, name):
        module = importlib.import_module(f"zebraperc.{home}")
        assert getattr(zebraperc, name) is getattr(module, name)

    def test_dir_lists_every_name(self):
        assert set(zebraperc.__all__) <= set(dir(zebraperc))

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            zebraperc.no_such_name  # noqa: B018

    def test_errors_keep_their_old_homes(self):
        from zebraperc import montecarlo, params, tree

        assert tree.TooLargeError is params.TooLargeError
        assert montecarlo.NoBracketError is params.NoBracketError


#: Each record built by keyword from all its fields in order, with its repr.
RECORDS = [
    (TreeParams, {"k": 3, "root_mode": RootMode.ROOTED_K},
     "TreeParams(k=3, root_mode=<RootMode.ROOTED_K: 'rooted-k'>)"),
    (TreeParams, {"k": 4, "root_mode": RootMode.FULL_CAYLEY},
     "TreeParams(k=4, root_mode=<RootMode.FULL_CAYLEY: 'full-cayley'>)"),
    (SolverConfig, {"tol": 1e-12, "max_iter": 10**6}, "SolverConfig(tol=1e-12, max_iter=1000000)"),
    (ZebraDPState, {"depth": 1, "a": 0.5, "b": 0.25, "z": 0.75},
     "ZebraDPState(depth=1, a=0.5, b=0.25, z=0.75)"),
    (CriticalPair, {"p_low": 0.25, "p_high": 0.75}, "CriticalPair(p_low=0.25, p_high=0.75)"),
    (CurvePoint, {"k": 3, "root_mode": RootMode.ROOTED_K, "p": 0.5, "depth": 0, "method": "dp",
                  "value": 0.5, "ci_low": 0.5, "ci_high": 0.5, "trials": 0, "seed": 0},
     "CurvePoint(k=3, root_mode=<RootMode.ROOTED_K: 'rooted-k'>, p=0.5, depth=0, method='dp', "
     "value=0.5, ci_low=0.5, ci_high=0.5, trials=0, seed=0)"),
    (EventSpec, {"kind": EventKind.ZEBRA_RAY, "depth": 3},
     "EventSpec(kind=<EventKind.ZEBRA_RAY: 'zebra'>, depth=3)"),
    (Estimate, {"mean": 0.5, "stderr": 0.1, "ci95_low": 0.3, "ci95_high": 0.7, "trials": 10,
                "seed": 1},
     "Estimate(mean=0.5, stderr=0.1, ci95_low=0.3, ci95_high=0.7, trials=10, seed=1)"),
]
#: The records were frozen dataclasses: hashable, and refusing assignment.
FROZEN = [(cls, fields) for cls, fields, _ in RECORDS]


class TestRecords:
    @pytest.mark.parametrize("cls,fields,text", RECORDS)
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    @pytest.mark.parametrize("cls,fields,text", RECORDS)
    def test_keyword_and_positional_construction_agree(self, cls, fields, text):
        record = cls(**fields)
        assert record == cls(*fields.values())
        assert [getattr(record, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls,fields", FROZEN)
    def test_equal_records_hash_alike(self, cls, fields):
        one, two = cls(**fields), cls(**fields)
        assert one == two and one is not two
        assert hash(one) == hash(two)

    @pytest.mark.parametrize("cls,fields", FROZEN)
    def test_frozen(self, cls, fields):
        record = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])

    def test_defaults(self):
        assert TreeParams(3).root_mode is RootMode.ROOTED_K
        assert SolverConfig(tol=1e-3) == SolverConfig(tol=1e-3, max_iter=10**6)

    @pytest.mark.parametrize("build,message", [
        (lambda: TreeParams(k=1), "branching order k must be >= 2, got 1"),
        (lambda: SolverConfig(tol=0), "tol must be positive, got 0"),
        (lambda: SolverConfig(max_iter=0), "max_iter must be >= 1, got 0"),
        (lambda: CriticalPair(0.6, 0.4), "p_low=0.6 exceeds p_high=0.4"),
        (lambda: EventSpec(EventKind.OPEN_RAY, 0), "event depth must be >= 1, got 0"),
    ])
    def test_validation(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
