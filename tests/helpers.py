"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to
check: one Mobius oracle inverts the characteristic series by a
grade-by-grade linear solve over factorizations instead of the star
route, the other keeps the old route, the star of one minus a
characteristic series built in full, against the grades that
``mobius_series`` feeds the solver directly, the falling-factorial counter
predicts no-repeat word counts arithmetically instead of by enumeration,
the term-by-term series reader parses every coefficient and spells every
word on its own, without the coefficient memo and the letter map of
``parse_series``, the element filter lists a grade by testing every word
of the root base instead of extending the grade below, the filter
counter counts every element instead of one word per residue class, and
the factorization filter tests both factors of every base factorization
for membership in the quotient.

The vector route keeps the exponent-vector arithmetic of the free
commutative monoid, whose words are sorted letter tuples: a word's
letter counts, their componentwise sum, and a vector expanded back into
sorted letter indices.
"""

import itertools

from mobzero import (
    AdjoinedZero,
    Alphabet,
    DegreeAtLeastIdeal,
    EvPreimageIdeal,
    FreeCommutativeMonoid,
    FreeMonoid,
    GeneratedIdeal,
    INTEGERS,
    MinLengthIdeal,
    ReesQuotient,
    RepeatedLetterIdeal,
    Series,
    SpecError,
    characteristic_series,
    star,
)
from mobzero.specio import _field, _is_integer, _letters, _parse_coefficient

LETTERS = ("a", "b", "c", "d")


def alphabet(k):
    return Alphabet(LETTERS[:k])


def free(k):
    return FreeMonoid(alphabet(k))


def commutative(k):
    return FreeCommutativeMonoid(alphabet(k))


def standard_words(k=3):
    base = free(k)
    return ReesQuotient(base, RepeatedLetterIdeal(base))


def builtin_monoids(k):
    """One representative of every built-in realization over k letters."""
    f = free(k)
    c = commutative(k)
    return [
        f,
        c,
        AdjoinedZero(f),
        AdjoinedZero(c),
        ReesQuotient(f, RepeatedLetterIdeal(f)),
        ReesQuotient(f, MinLengthIdeal(f, 3)),
        ReesQuotient(c, DegreeAtLeastIdeal(c, 3)),
    ]


def builtin_free_ideals(base):
    """Every built-in ideal kind applicable to a free base."""
    inner_base = FreeCommutativeMonoid(base.alphabet())
    last_letter = (len(base.alphabet()) - 1,)
    return [
        RepeatedLetterIdeal(base),
        MinLengthIdeal(base, 3),
        GeneratedIdeal(base, [last_letter]),
        EvPreimageIdeal(base, DegreeAtLeastIdeal(inner_base, 2)),
    ]


def mobius_by_triangular_solve(m, truncation, ring=INTEGERS):
    """Invert the characteristic series grade by grade.

    mu*zeta = 1 forces, for every x other than the identity,
    sum of mu(y) over all pairs (y, z) with yz = x to vanish; the pair
    (x, identity) isolates the unknown, every other pair has a left
    factor of strictly lower order.  No star operation involved.
    """
    identity = m.identity()
    mu = {identity: ring.one}
    for n in range(1, truncation + 1):
        for x in elements_by_filter(m, n):
            total = ring.zero
            for y, z in m.factorizations(x):
                if z == identity:
                    continue
                known = mu.get(y)
                if known is not None:
                    total = ring.add(total, known)
            value = ring.neg(total)
            if value != ring.zero:
                mu[x] = value
    return Series(m, truncation, mu, ring)


def mobius_by_star(m, truncation, ring=INTEGERS):
    """The star of -zeta+, with the characteristic series zeta built and
    subtracted from one, and handed to ``star``."""
    return star(Series.one(m, truncation, ring)
                - characteristic_series(m, truncation, ring))


def commutative_image(word, size):
    """Letter-count vector of a word over ``size`` letters."""
    counts = [0] * size
    for i in word:
        counts[i] += 1
    return tuple(counts)


def add_vectors(u, v):
    """Componentwise sum of two letter-count vectors."""
    return tuple(a + b for a, b in zip(u, v))


def vector_word(vector):
    """The free commutative word with the given letter counts: its letter
    indices in increasing order."""
    return tuple(i for i, e in enumerate(vector) for _ in range(e))


def elements_by_filter(m, n):
    """The elements of order n in display order: every word of order n
    of the root base (the free or free commutative monoid under all
    wrappers and quotients) is built and tested with ``m.contains``.
    Commutative words come from the letter-count vectors of total n,
    listed with decreasing coordinates: the more of the early letters,
    the earlier the word."""
    root = m
    while hasattr(root, "base"):
        root = root.base
    k = len(root.alphabet())
    if isinstance(root, FreeCommutativeMonoid):
        words = (vector_word(v)
                 for v in itertools.product(range(n, -1, -1), repeat=k)
                 if sum(v) == n)
    else:
        words = itertools.product(range(k), repeat=n)
    return [w for w in words if m.contains(w)]


def counts_by_filter(m, top):
    """Number of nonzero elements of each order 0..top, every element
    listed by :func:`elements_by_filter`."""
    return tuple(len(elements_by_filter(m, n)) for n in range(top + 1))


def factorizations_by_filter(quotient, x):
    """The base factorizations of x whose two factors both lie outside
    the quotient's ideal, in the order of ``factorizations``."""
    return [(y, z) for y, z in quotient.base.factorizations(x)
            if quotient.contains(y) and quotient.contains(z)]


def falling_factorial(k, n):
    """Number of length-n words over k letters with no letter repeated."""
    value = 1
    for i in range(n):
        value *= k - i
    return value


def series_from_letterlists(m, truncation, pairs, ring=INTEGERS):
    """Build a series from (coefficient, "letters") string shorthand."""
    terms = {}
    for coeff, text in pairs:
        word = m.word_from_letters(list(text))
        terms[word] = ring.from_int(coeff)
    return Series(m, truncation, terms, ring)


def parse_series_by_terms(obj, monoid, ring=INTEGERS):
    """Read a wire series term by term: ``_parse_coefficient`` and
    ``word_from_letters`` on every term, each check in the order
    ``parse_series`` makes them, with the same errors."""
    truncation = _field(obj, "truncation", "series")
    if not _is_integer(truncation) or truncation < 0:
        raise SpecError(
            f"series truncation must be a nonnegative integer, got {truncation!r}")
    raw_terms = _field(obj, "terms", "series")
    if not isinstance(raw_terms, list):
        raise SpecError(f"series terms must be a list, got {raw_terms!r}")
    terms = {}
    seen = set()
    for entry in raw_terms:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SpecError(f"each term must be [coefficient, letters], "
                            f"got {entry!r}")
        coeff_text, letters = entry
        coeff = _parse_coefficient(coeff_text, ring)
        word = monoid.word_from_letters(_letters(letters, "a term's word"))
        if monoid._order(word) > truncation:
            raise SpecError(
                f"term {letters!r} has order {monoid._order(word)}, beyond "
                f"the stated truncation {truncation}")
        if word in seen:
            raise SpecError(f"duplicate term for word {letters!r}")
        seen.add(word)
        if coeff != ring.zero:
            terms[word] = coeff
    return Series(monoid, truncation, terms, ring, _normalized=True)
