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
    TruncationError,
)
from .monoid import (
    DEFAULT_TRUNCATION,
    AdjoinedZero,
    Alphabet,
    FreeCommutativeMonoid,
    FreeMonoid,
    MonoidValue,
    ReesQuotient,
    Report,
    Word,
    ZERO,
    Zero,
    ZeroMonoid,
    validate_locally_finite,
)
from .ideals import (
    DegreeAtLeastIdeal,
    EvPreimageIdeal,
    GeneratedIdeal,
    IdealSpec,
    MinLengthIdeal,
    RepeatedLetterIdeal,
    validate_ideal,
)
from .series import (
    INTEGERS,
    RATIONALS,
    IntegerModRing,
    Ring,
    Series,
    add,
    cauchy_product,
    characteristic_series,
    check_oracle_equivalence,
    check_unit_inverse,
    convolve_oracle,
    first_difference,
    mobius_invert_left,
    mobius_invert_right,
    mobius_series,
    power,
    random_series,
    scalar_mul,
    star,
    star_by_powers,
    zeta_transform_left,
    zeta_transform_right,
)
from .quotient_maps import (
    check_lemma_inverse_via_section,
    check_mobius_transfer,
    phi,
    section,
)
from .hilbert import (
    check_hilbert_relation,
    evaluation_map,
    hilbert_prefix,
    poly_text,
)
from .specio import (
    ideal_to_json,
    monoid_to_json,
    parse_ideal,
    parse_monoid,
    parse_series,
    read_json_source,
    series_to_json,
)

__version__ = "0.1.0"
