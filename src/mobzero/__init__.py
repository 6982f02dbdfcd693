"""Exact truncated series arithmetic over locally finite monoids with zero.

The package computes Mobius series, star closures, and Cauchy products in
contracted algebras of monoids with an absorbing element, all modulo a
fixed order truncation, with exact integer (or rational, or modular)
coefficients.  Quotients of free and free commutative monoids by
decidable two-sided ideals are built in, along with the projection and
section maps that relate series upstairs and downstairs, and degreewise
dimension counts for the graded quotient algebras.
"""

from .errors import (
    AlgebraError,
    InfiniteGradeError,
    MembershipError,
    MonoidMismatchError,
    ProperError,
    SpecError,
)
from .monoid import (
    Alphabet,
    FreeCommutativeMonoid,
    FreeMonoid,
    ReesQuotient,
    Report,
    Word,
    ZERO,
    Zero,
    ZeroMonoid,
)
from .ideals import (
    GeneratedIdeal,
    IdealSpec,
    MinLengthIdeal,
    RepeatedLetterIdeal,
)
from .series import (
    INTEGERS,
    RATIONALS,
    IntegerModRing,
    Ring,
    Series,
    cauchy_product,
    characteristic_series,
    check_oracle_equivalence,
    check_unit_inverse,
    convolve_oracle,
    first_difference,
    mobius_invert_left,
    mobius_invert_right,
    mobius_series,
    star,
)
from .quotient_maps import (
    check_mobius_transfer,
    phi,
    section,
)
from .hilbert import (
    check_hilbert_relation,
    hilbert_prefix,
    poly_text,
)
from .specio import (
    parse_ideal,
    parse_monoid,
    parse_series,
    read_json_source,
    series_to_json,
)

__version__ = "0.1.0"
