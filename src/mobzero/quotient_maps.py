"""Maps between series over a base monoid and over its quotient by an ideal.

Every map here is fixed by the quotient alone: each function takes the
:class:`ReesQuotient` ``q`` and reads the base and the ideal from it.
Two linear maps do the work.  The projection ``phi`` forgets every term
supported on the ideal; it is a ring morphism with kernel exactly the
series supported inside the ideal.  The section reads a quotient series
back over the base unchanged, which is well defined because quotient
words are base words outside the ideal.  The section is linear but not
multiplicative: products that die in the quotient come back to life over
the base.  phi after section is the identity all the same.
:func:`check_mobius_transfer` checks that phi carries the base's Mobius
series onto the quotient's.
"""

from __future__ import annotations

from .errors import MonoidMismatchError
from .monoid import Report, ReesQuotient
from .series import Series, first_difference, mobius_series


def phi(q: ReesQuotient, f: Series) -> Series:
    """Project a base series onto the quotient by dropping ideal terms."""
    if f.monoid != q.base:
        raise MonoidMismatchError(
            f"phi expects a series over {q.base.describe()}, "
            f"got one over {f.monoid.describe()}")
    contains = q.ideal.contains
    terms = {w: c for w, c in f.terms.items() if not contains(w)}
    return Series(q, f.truncation, terms, f.ring, _normalized=True)


def section(q: ReesQuotient, f: Series) -> Series:
    """Read a quotient series over the base, term for term.

    Linear and injective, splits phi on the right.  Not multiplicative:
    use it to move representatives, never to push products through.
    """
    if f.monoid != q:
        raise MonoidMismatchError(
            f"section expects a series over {q.describe()}, "
            f"got one over {f.monoid.describe()}")
    return Series(q.base, f.truncation, dict(f.terms), f.ring,
                  _normalized=True)


def check_mobius_transfer(q: ReesQuotient, truncation: int) -> Report:
    """The quotient's Mobius series is the projection of the base's.

    Both sides are computed intrinsically and compared.  The note records
    whether the base series even touches the ideal; when it does not, the
    two coincide term for term as raw coefficient maps.
    """
    mu_base = mobius_series(q.base, truncation)
    transferred = phi(q, mu_base)
    mu_quotient = mobius_series(q, truncation)
    violations = []
    if transferred != mu_quotient:
        violations.append(
            "projected base Mobius series differs from the quotient's "
            f"({first_difference(transferred, mu_quotient)})")
    if any(q.ideal.contains(w) for w in mu_base.terms):
        notes = ("base Mobius support meets the ideal; projection drops terms",)
    else:
        notes = ("base Mobius support avoids the ideal; series agree "
                 "term for term",)
    return Report("mobius-transfer", tuple(violations), notes)
