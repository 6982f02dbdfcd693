"""Maps between series over a base monoid and over its quotient by an ideal.

Two linear maps do the work.  The projection ``phi`` forgets every term
supported on the ideal; it is a ring morphism with kernel exactly the
series supported inside the ideal.  The section reads a quotient series
back over the base unchanged, which is well defined because quotient
words are base words outside the ideal.  The section is linear but not
multiplicative: products that die in the quotient come back to life over
the base.  phi after section is the identity all the same, and that
one-sided inverse is enough to transport inverses downstairs, which is
what the two check functions exercise.
"""

from __future__ import annotations

from .errors import ContextMismatchError, ProperError, SpecError
from .monoid import DEFAULT_TRUNCATION, Report, ReesQuotient, ZeroMonoid
from .series import (
    INTEGERS,
    Ring,
    Series,
    cauchy_product,
    first_difference,
    mobius_series,
    star,
)


class QuotientContext:
    """A base monoid, an ideal of it, and the quotient they induce.

    Bundling the three keeps phi and the section honest about which
    algebras they map between; every map below insists its argument lives
    over the expected carrier.
    """

    def __init__(self, base: ZeroMonoid, ideal, quotient: ReesQuotient = None):
        if quotient is None:
            quotient = ReesQuotient(base, ideal)
        elif quotient.base != base or quotient.ideal != ideal:
            raise SpecError("quotient does not match the given base and ideal")
        self.base = base
        self.ideal = ideal
        self.quotient = quotient

    @classmethod
    def from_quotient(cls, quotient: ReesQuotient) -> "QuotientContext":
        return cls(quotient.base, quotient.ideal, quotient)

    def describe(self) -> str:
        return self.quotient.describe()

    def __eq__(self, other):
        return (isinstance(other, QuotientContext)
                and other.quotient == self.quotient)

    def __hash__(self):
        return hash(self.quotient)

    def __repr__(self):
        return f"<QuotientContext {self.describe()}>"


def phi(ctx: QuotientContext, f: Series) -> Series:
    """Project a base series onto the quotient by dropping ideal terms."""
    if f.monoid != ctx.base:
        raise ContextMismatchError(
            f"phi expects a series over {ctx.base.describe()}, "
            f"got one over {f.monoid.describe()}")
    contains = ctx.ideal.contains
    terms = {w: c for w, c in f.terms.items() if not contains(w)}
    return Series(ctx.quotient, f.truncation, terms, f.ring, _normalized=True)


def section(ctx: QuotientContext, f: Series) -> Series:
    """Read a quotient series over the base, term for term.

    Linear and injective, splits phi on the right.  Not multiplicative:
    use it to move representatives, never to push products through.
    """
    if f.monoid != ctx.quotient:
        raise ContextMismatchError(
            f"section expects a series over {ctx.describe()}, "
            f"got one over {f.monoid.describe()}")
    return Series(ctx.base, f.truncation, dict(f.terms), f.ring,
                  _normalized=True)


def check_lemma_inverse_via_section(ctx: QuotientContext, f: Series) -> Report:
    """Compare two routes to the inverse of a quotient series with
    augmentation one: invert in the quotient directly, or lift by the
    section, invert over the base, and project back down.
    """
    if f.monoid != ctx.quotient:
        raise ContextMismatchError(
            f"expected a series over {ctx.describe()}, "
            f"got one over {f.monoid.describe()}")
    if f.augmentation() != f.ring.one:
        raise ProperError(
            "inverse-via-section needs augmentation one, got "
            f"{f.ring.render(f.augmentation())}")
    one_q = Series.one(ctx.quotient, f.truncation, f.ring)
    direct = star(one_q - f)
    lifted = section(ctx, f)
    one_b = Series.one(ctx.base, f.truncation, f.ring)
    upstairs = star(one_b - lifted)
    via_section = phi(ctx, upstairs)
    violations = []
    if direct != via_section:
        violations.append(
            f"inverses disagree ({first_difference(direct, via_section)})")
    else:
        check = cauchy_product(direct, f)
        if check != one_q:
            violations.append(
                f"claimed inverse fails ({first_difference(check, one_q)})")
    return Report("inverse-via-section", tuple(violations))


def check_mobius_transfer(ctx: QuotientContext,
                          truncation: int = DEFAULT_TRUNCATION,
                          ring: Ring = INTEGERS) -> Report:
    """The quotient's Mobius series is the projection of the base's.

    Both sides are computed intrinsically and compared.  The note records
    whether the base series even touches the ideal; when it does not, the
    two coincide term for term as raw coefficient maps.
    """
    mu_base = mobius_series(ctx.base, truncation, ring)
    transferred = phi(ctx, mu_base)
    mu_quotient = mobius_series(ctx.quotient, truncation, ring)
    violations = []
    if transferred != mu_quotient:
        violations.append(
            "projected base Mobius series differs from the quotient's "
            f"({first_difference(transferred, mu_quotient)})")
    meets = any(ctx.ideal.contains(w) for w in mu_base.terms)
    if meets:
        notes = ("base Mobius support meets the ideal; projection drops terms",)
    else:
        notes = ("base Mobius support avoids the ideal; series agree "
                 "term for term",)
        if not violations and mu_base.terms != mu_quotient.terms:
            violations.append(
                "supports avoid the ideal but raw term maps differ")
    return Report("mobius-transfer", tuple(violations), notes)
