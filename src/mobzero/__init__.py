"""Exact truncated series arithmetic over locally finite monoids with zero.

The package computes Mobius series, star closures, and Cauchy products in
contracted algebras of monoids with an absorbing element, all modulo a
fixed order truncation, with exact integer (or rational, or modular)
coefficients.  Quotients of free and free commutative monoids by
decidable two-sided ideals are built in, along with the projection and
section maps that relate series upstairs and downstairs, and degreewise
dimension counts for the graded quotient algebras.

Each submodule executes on its first use, so a process pays only for
the modules its work reads: counting the elements of a quotient never
executes the series layer.  The submodules are in ``sys.modules`` and
on the package from the start, each a placeholder of the standard
library's ``importlib.util.LazyLoader``; the first read of one of its
attributes executes it, and it is then an ordinary module.  The
package's own names are served from ``_EXPORTS`` by ``__getattr__``.
"""

import importlib.util
import sys

# each exported name, by the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": ("AlgebraError", "InfiniteGradeError", "MembershipError",
                   "MonoidMismatchError", "ProperError", "SpecError"),
        "monoid": ("Alphabet", "FreeCommutativeMonoid", "FreeMonoid",
                   "ReesQuotient", "Report", "Word", "ZERO", "Zero",
                   "ZeroMonoid"),
        "ideals": ("GeneratedIdeal", "IdealSpec", "MinLengthIdeal",
                   "RepeatedLetterIdeal"),
        "series": ("INTEGERS", "RATIONALS", "IntegerModRing", "Ring",
                   "Series", "cauchy_product", "characteristic_series",
                   "check_oracle_equivalence", "check_unit_inverse",
                   "convolve_oracle", "first_difference",
                   "mobius_invert_left", "mobius_invert_right",
                   "mobius_series", "star"),
        "quotient_maps": ("check_mobius_transfer", "phi", "section"),
        "hilbert": ("check_hilbert_relation", "hilbert_prefix", "poly_text"),
        "specio": ("parse_ideal", "parse_monoid", "parse_series",
                   "read_json_source", "series_to_json"),
    }.items()
    for name in names
}
__all__ = sorted(_EXPORTS)


def _register(name: str):
    """Submodule ``name``, in ``sys.modules`` but not yet executed."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound on the package as an eager import binds them, so that
# ``from . import series`` finds the placeholder without reading it
for _name in dict.fromkeys(_EXPORTS.values()):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[module], name)


__version__ = "0.1.0"
