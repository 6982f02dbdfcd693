"""Graded dimension counts of monoids and their quotients.

For a quotient of a free monoid by an ideal, the words of each length
that survive the quotient form a basis of the corresponding graded piece
of the contracted algebra, so counting them degree by degree is the
Hilbert function.  The counts obey an exact complement rule against the
full power of the alphabet, which :func:`check_hilbert_relation` verifies
by computing every quantity along its own route.
"""

from __future__ import annotations

import itertools

from .errors import SpecError
from .monoid import FreeMonoid, ReesQuotient, Report, ZeroMonoid
from .series import signed_sum


def hilbert_prefix(m: ZeroMonoid, top: int) -> tuple:
    """Count nonzero elements of each order from 0 up to ``top``, as a
    tuple indexed by order.

    Each grade is held as one representative word and a multiplicity per
    residue (:meth:`ZeroMonoid.residue`); the next grade extends every
    representative once.  Elements of equal order and residue have
    extensions of equal residues, so the counts are exact while each
    grade costs its number of residues times the extensions of one word,
    not its number of elements.  Needs ``m.extend``: a monoid without it
    raises :class:`InfiniteGradeError` for ``top`` above 0.
    """
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    extend = m.extend
    residue = m.residue
    grade = {residue(()): [(), 1]}
    counts = [1]
    for _ in range(top):
        above = {}
        for word, multiplicity in grade.values():
            for child in extend(word):
                key = residue(child)
                if key in above:
                    above[key][1] += multiplicity
                else:
                    above[key] = [child, multiplicity]
        grade = above
        counts.append(sum(entry[1] for entry in grade.values()))
    return tuple(counts)


def check_hilbert_relation(q: ReesQuotient, top: int) -> Report:
    """Quotient count plus ideal count must equal the full alphabet power,
    at every degree from 0 to ``top``.

    Demands a free base so the total at degree n is k**n analytically;
    the ideal side tests every word of length n, built here and not by
    the monoid, with the membership predicate, and the quotient side
    comes from :func:`hilbert_prefix`, which counts residue classes and
    builds no grade, making three independent routes per degree.
    """
    if top < 0:
        raise ValueError(f"top must be nonnegative, got {top}")
    if not isinstance(q.base, FreeMonoid):
        raise SpecError(
            "the complement rule needs a free base monoid, got "
            f"{q.base.describe()}")
    k = len(q.base.alphabet())
    contains = q.ideal.contains
    violations = []
    quotient_counts = list(hilbert_prefix(q, top))
    for n, survive in enumerate(quotient_counts):
        total = k ** n
        in_ideal = sum(1 for w in itertools.product(range(k), repeat=n)
                       if contains(w))
        if survive + in_ideal != total:
            violations.append(
                f"degree {n}: {survive} survivors + {in_ideal} in the ideal "
                f"!= {total} words")
    notes = (f"quotient counts: {quotient_counts}",)
    return Report("hilbert-relation", tuple(violations), notes)


def poly_text(coeffs) -> str:
    """Render integer-like coefficients as a polynomial in t."""
    def term(n, c):
        magnitude = abs(c)
        if n == 0:
            return c < 0, str(magnitude)
        head = "" if magnitude == 1 else str(magnitude)
        return c < 0, head + ("t" if n == 1 else f"t^{n}")

    return signed_sum(term(n, c) for n, c in enumerate(coeffs) if c != 0)
