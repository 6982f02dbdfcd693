import math
import random

import pytest

from mobzero import (
    AdjoinedZero,
    DegreeAtLeastIdeal,
    GeneratedIdeal,
    HilbertPrefix,
    MinLengthIdeal,
    QuotientContext,
    ReesQuotient,
    RepeatedLetterIdeal,
    Series,
    SpecError,
    cauchy_product,
    characteristic_series,
    check_hilbert_relation,
    evaluation_map,
    hilbert_prefix,
    poly_text,
    random_series,
    section,
)

from helpers import (
    builtin_free_ideals,
    builtin_monoids,
    commutative,
    falling_factorial,
    free,
    series_from_letterlists,
    counts_by_filter,
    standard_words,
)


def test_standard_words_prefix():
    hp = hilbert_prefix(standard_words(), 5)
    assert hp.counts == (1, 3, 6, 6, 0, 0)
    assert hp.terms == 5


def test_standard_words_prefix_matches_falling_factorial():
    for k in (1, 2, 3, 4):
        hp = hilbert_prefix(standard_words(k), 10)
        assert hp.counts == tuple(falling_factorial(k, n) for n in range(11))


def test_min_length_truncation_prefix():
    base = free(2)
    m = ReesQuotient(base, MinLengthIdeal(base, 3))
    assert hilbert_prefix(m, 4).counts == (1, 2, 4, 0, 0)


def test_free_monoid_prefix():
    assert hilbert_prefix(free(2), 3).counts == (1, 2, 4, 8)


def test_commutative_prefix():
    # binomial counts C(n + 1, 1) over two letters
    assert hilbert_prefix(commutative(2), 4).counts == (1, 2, 3, 4, 5)


def test_prefix_rejects_negative():
    with pytest.raises(ValueError):
        hilbert_prefix(free(2), -1)


def test_identity_always_survives_proper_quotients():
    for k in (1, 2, 3):
        base = free(k)
        for ideal in builtin_free_ideals(base):
            m = ReesQuotient(base, ideal)
            assert hilbert_prefix(m, 0).counts == (1,)


def test_prefix_matches_filtered_counts():
    for k in (2, 3):
        base = free(k)
        quotients = [ReesQuotient(base, ideal)
                     for ideal in builtin_free_ideals(base)]
        quotients += [m for m in builtin_monoids(k)
                      if isinstance(m, ReesQuotient)]
        for m in quotients:
            assert hilbert_prefix(m, 7).counts == counts_by_filter(m, 7), \
                m.describe()


# -- closed forms far beyond enumeration -------------------------------------

FAR = 300


def test_far_avoiding_ab_counts_follow_their_recurrence():
    # words over {a, b, c} without the factor ab: a_n = 3a_(n-1) - a_(n-2)
    base = free(3)
    counts = hilbert_prefix(ReesQuotient(base, GeneratedIdeal(base, [(0, 1)])),
                            FAR).counts
    expected = [1, 3]
    while len(expected) <= FAR:
        expected.append(3 * expected[-1] - expected[-2])
    assert counts == tuple(expected)


def test_far_repeated_letter_counts_are_falling_factorials():
    for k in (1, 2, 3, 4):
        assert hilbert_prefix(standard_words(k), FAR).counts == tuple(
            falling_factorial(k, n) for n in range(FAR + 1))


def test_far_min_length_counts_are_powers_below_the_bound():
    for k, bound in ((1, 1), (2, 7), (3, 5)):
        for base in (free(k), AdjoinedZero(free(k))):
            m = ReesQuotient(base, MinLengthIdeal(base, bound))
            assert hilbert_prefix(m, FAR).counts == tuple(
                k ** n if n < bound else 0 for n in range(FAR + 1))


def test_far_free_and_commutative_counts():
    for k in (1, 2, 3, 4):
        assert hilbert_prefix(free(k), FAR).counts == tuple(
            k ** n for n in range(FAR + 1))
        binomials = tuple(math.comb(n + k - 1, k - 1) for n in range(FAR + 1))
        for m in (commutative(k), AdjoinedZero(commutative(k))):
            assert hilbert_prefix(m, FAR).counts == binomials
        c = commutative(k)
        m = ReesQuotient(c, DegreeAtLeastIdeal(c, 40))
        assert hilbert_prefix(m, FAR).counts == tuple(
            b if n < 40 else 0 for n, b in enumerate(binomials))


# -- complement relation ----------------------------------------------------

def test_relation_repeated_letter():
    base = free(3)
    ctx = QuotientContext(base, RepeatedLetterIdeal(base))
    report = check_hilbert_relation(ctx, 8)
    assert report.passed, report.counterexample
    # ideal sizes follow the complement of the no-repeat counts
    for n in range(7):
        in_ideal = sum(
            1 for word in base.elements_of_order(n)
            if ctx.ideal.contains(word))
        assert in_ideal == 3 ** n - falling_factorial(3, n)


def test_relation_min_length():
    base = free(2)
    ctx = QuotientContext(base, MinLengthIdeal(base, 3))
    assert check_hilbert_relation(ctx, 8).passed
    for n in range(8):
        in_ideal = sum(
            1 for word in base.elements_of_order(n) if ctx.ideal.contains(word))
        assert in_ideal == (2 ** n if n >= 3 else 0)


def test_ideal_empty_at_degree_zero():
    for k in (1, 2, 3):
        base = free(k)
        for ideal in builtin_free_ideals(base):
            assert not ideal.contains(base.identity())


def test_relation_requires_free_base():
    cbase = commutative(2)
    ctx = QuotientContext(cbase, DegreeAtLeastIdeal(cbase, 2))
    with pytest.raises(SpecError):
        check_hilbert_relation(ctx, 4)
    with pytest.raises(ValueError):
        base = free(2)
        check_hilbert_relation(
            QuotientContext(base, MinLengthIdeal(base, 2)), -1)


# -- evaluation map ---------------------------------------------------------

def test_evaluation_of_one():
    assert evaluation_map(Series.one(free(2), 4), 4) == [1, 0, 0, 0, 0]


def test_evaluation_counts_by_length():
    m = free(2)
    f = series_from_letterlists(m, 4, [(1, "a"), (1, "b"), (1, "ab")])
    assert evaluation_map(f, 4) == [0, 2, 1, 0, 0]


def test_evaluation_respects_truncation():
    m = free(2)
    f = Series.one(m, 2)
    assert evaluation_map(f, 10) == [1, 0, 0]


def test_evaluation_needs_free_monoid():
    with pytest.raises(SpecError):
        evaluation_map(Series.one(standard_words(), 4), 4)
    with pytest.raises(ValueError):
        evaluation_map(Series.one(free(2), 4), -2)


def test_evaluation_of_sectioned_characteristic():
    # e(s(zeta of quotient)) = e(zeta of base) - e(indicator of ideal)
    base = free(3)
    ctx = QuotientContext(base, RepeatedLetterIdeal(base))
    zq = characteristic_series(ctx.quotient, 6)
    lifted = section(ctx, zq)
    left = evaluation_map(lifted, 6)
    zeta_base = characteristic_series(base, 6)
    indicator = {}
    for n in range(7):
        for word in base.elements_of_order(n):
            if ctx.ideal.contains(word):
                indicator[word] = 1
    right_full = evaluation_map(zeta_base, 6)
    right_ideal = evaluation_map(Series(base, 6, indicator), 6)
    assert left == [a - b for a, b in zip(right_full, right_ideal)]
    # and the counts are exactly the quotient Hilbert prefix
    assert left == list(hilbert_prefix(ctx.quotient, 6).counts)


def test_evaluation_is_multiplicative_to_order():
    rng = random.Random(53)
    m = free(2)
    for _ in range(25):
        f = random_series(rng, m, 6)
        g = random_series(rng, m, 6)
        ef = evaluation_map(f, 6)
        eg = evaluation_map(g, 6)
        product = [0] * 7
        for i, a in enumerate(ef):
            for j, b in enumerate(eg):
                if i + j <= 6:
                    product[i + j] += a * b
        assert evaluation_map(cauchy_product(f, g), 6) == product


# -- rendering --------------------------------------------------------------

def test_poly_text():
    assert poly_text([1, 3, 6, 6]) == "1 + 3t + 6t^2 + 6t^3"
    assert poly_text([0, 1, 0, 2]) == "t + 2t^3"
    assert poly_text([0, 0]) == "0"
    assert poly_text([1, -1, -3]) == "1 - t - 3t^2"
    assert poly_text([-2]) == "-2"


def test_prefix_text_and_json():
    hp = HilbertPrefix((1, 3, 6, 6))
    assert hp.text() == "1 + 3t + 6t^2 + 6t^3"
    assert str(hp) == hp.text()
    assert hp.to_json() == {"counts": [1, 3, 6, 6]}
