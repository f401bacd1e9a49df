"""patlab: exact and sampled analysis of orbit order patterns of interval maps.

A continuous self-map of [0,1], iterated from a start point, produces a
sequence whose relative order is a permutation.  Piecewise-linear maps
with rational data admit exact enumeration of these patterns; smooth maps
are sampled in floating point.  The package computes allowed and
forbidden pattern sets, minimal forbidden patterns, geometric bounds on
the shortest forbidden length, avoider counts, and obstructions telling
which pattern sets can never be a map's minimal forbidden family.

Only the float sampler needs NumPy, so ``import patlab`` does not load it.
The submodule ``patlab.numeric`` and the names taken from it
(NumericMap, SampleConfig, cap_pattern, first_missing_cap, pattern_at,
sampled_allowed) resolve on first access, and NumPy loads then.
"""

__version__ = "0.1.0"

from .bounds import (
    AntichainLengthCheck,
    BoundReport,
    basis_length_check,
    basis_obstruction,
    diagonal_region,
    in_witness_class,
    refined_piece_count,
    shortest_bound,
    witness,
)
from .engine import (
    exact_allowed,
    exact_basic_forbidden,
    exact_forbidden,
    is_realized,
    shortest_forbidden_length,
)
from .errors import (
    BadParameter,
    DuplicateValue,
    OutOfDomain,
    ParseError,
    PatlabError,
    ResourceLimit,
    TieDetected,
    UnknownMap,
    ValidationError,
)
from .mapspec import LoadedMap, load_map_spec, serialize
from .perms import (
    PatternSet,
    Perm,
    all_perms,
    avoiders,
    contains,
    count_avoiders,
    format_perm,
    is_antichain,
    parse_perm,
    reduce_values,
)
from .pwl import (
    PwlMap,
    PwlPiece,
    alt_sawtooth,
    sawtooth,
    tent,
)

__all__ = [
    "__version__",
    "AntichainLengthCheck",
    "BadParameter",
    "BoundReport",
    "DuplicateValue",
    "LoadedMap",
    "NumericMap",
    "OutOfDomain",
    "ParseError",
    "PatlabError",
    "PatternSet",
    "Perm",
    "PwlMap",
    "PwlPiece",
    "ResourceLimit",
    "SampleConfig",
    "TieDetected",
    "UnknownMap",
    "ValidationError",
    "all_perms",
    "alt_sawtooth",
    "avoiders",
    "basis_length_check",
    "basis_obstruction",
    "cap_pattern",
    "contains",
    "count_avoiders",
    "diagonal_region",
    "exact_allowed",
    "exact_basic_forbidden",
    "exact_forbidden",
    "first_missing_cap",
    "format_perm",
    "in_witness_class",
    "is_antichain",
    "is_realized",
    "load_map_spec",
    "parse_perm",
    "pattern_at",
    "reduce_values",
    "sampled_allowed",
    "sawtooth",
    "serialize",
    "shortest_bound",
    "shortest_forbidden_length",
    "tent",
    "witness",
]

_NUMERIC_NAMES = frozenset(
    {"NumericMap", "SampleConfig", "cap_pattern", "first_missing_cap", "pattern_at", "sampled_allowed"}
)


def __getattr__(name: str):
    # importlib, not "from . import numeric": that form asks hasattr(patlab,
    # "numeric") first, which would land back here
    if name == "numeric" or name in _NUMERIC_NAMES:
        from importlib import import_module

        numeric = import_module(".numeric", __name__)
        return numeric if name == "numeric" else getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMERIC_NAMES, "numeric"})
