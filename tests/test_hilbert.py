import math
import random

import pytest

from mobzero import (
    DegreeAtLeastIdeal,
    GeneratedIdeal,
    MinLengthIdeal,
    ReesQuotient,
    RepeatedLetterIdeal,
    Series,
    SpecError,
    cauchy_product,
    characteristic_series,
    check_hilbert_relation,
    hilbert_prefix,
    poly_text,
    section,
)

from helpers import (
    avoiding_counts_by_clusters,
    builtin_free_ideals,
    builtin_monoids,
    commutative,
    falling_factorial,
    free,
    counts_by_filter,
    random_series,
    standard_words,
)


def test_standard_words_prefix():
    assert hilbert_prefix(standard_words(), 5) == (1, 3, 6, 6, 0, 0)


def test_standard_words_prefix_matches_falling_factorial():
    for k in (1, 2, 3, 4):
        assert hilbert_prefix(standard_words(k), 10) == tuple(
            falling_factorial(k, n) for n in range(11))


def test_min_length_truncation_prefix():
    base = free(2)
    m = ReesQuotient(base, MinLengthIdeal(base, 3))
    assert hilbert_prefix(m, 4) == (1, 2, 4, 0, 0)


def test_free_monoid_prefix():
    assert hilbert_prefix(free(2), 3) == (1, 2, 4, 8)


def test_commutative_prefix():
    # binomial counts C(n + 1, 1) over two letters
    assert hilbert_prefix(commutative(2), 4) == (1, 2, 3, 4, 5)


def test_prefix_rejects_negative():
    with pytest.raises(ValueError):
        hilbert_prefix(free(2), -1)


def test_identity_always_survives_proper_quotients():
    for k in (1, 2, 3):
        base = free(k)
        for ideal in builtin_free_ideals(base):
            m = ReesQuotient(base, ideal)
            assert hilbert_prefix(m, 0) == (1,)


def test_prefix_matches_filtered_counts():
    for k in (2, 3):
        base = free(k)
        quotients = [ReesQuotient(base, ideal)
                     for ideal in builtin_free_ideals(base)]
        quotients += [m for m in builtin_monoids(k)
                      if isinstance(m, ReesQuotient)]
        for m in quotients:
            assert hilbert_prefix(m, 7) == counts_by_filter(m, 7), \
                m.describe()


# -- closed forms far beyond enumeration -------------------------------------

FAR = 300


def test_far_avoiding_ab_counts_follow_their_recurrence():
    # words over {a, b, c} without the factor ab: a_n = 3a_(n-1) - a_(n-2)
    base = free(3)
    counts = hilbert_prefix(ReesQuotient(base, GeneratedIdeal(base, [(0, 1)])),
                            FAR)
    expected = [1, 3]
    while len(expected) <= FAR:
        expected.append(3 * expected[-1] - expected[-2])
    assert counts == tuple(expected)


@pytest.mark.parametrize("k, generators, top", [
    (4, ["ab", "cc"], 400),
    (4, ["abcab"], 200),
    (3, ["c", "ab", "bab"], 200),
    (2, ["aba", "bab", "aabb"], 200),
    (4, ["abcdab", "bbbbbb"], 60),
    (4, ["abcdabcda"], 200),
], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
def test_far_generated_counts_match_the_cluster_method(k, generators, top):
    base = free(k)
    words = [base.word_from_letters(g) for g in generators]
    q = ReesQuotient(base, GeneratedIdeal(base, words))
    assert list(hilbert_prefix(q, top)) == \
        avoiding_counts_by_clusters(k, words, top)


def test_far_repeated_letter_counts_are_falling_factorials():
    for k in (1, 2, 3, 4):
        assert hilbert_prefix(standard_words(k), FAR) == tuple(
            falling_factorial(k, n) for n in range(FAR + 1))


def test_far_min_length_counts_are_powers_below_the_bound():
    for k, bound in ((1, 1), (2, 7), (3, 5)):
        m = ReesQuotient(free(k), MinLengthIdeal(free(k), bound))
        assert hilbert_prefix(m, FAR) == tuple(
            k ** n if n < bound else 0 for n in range(FAR + 1))


def test_far_free_and_commutative_counts():
    for k in (1, 2, 3, 4):
        assert hilbert_prefix(free(k), FAR) == tuple(
            k ** n for n in range(FAR + 1))
        binomials = tuple(math.comb(n + k - 1, k - 1) for n in range(FAR + 1))
        c = commutative(k)
        assert hilbert_prefix(c, FAR) == binomials
        m = ReesQuotient(c, DegreeAtLeastIdeal(c, 40))
        assert hilbert_prefix(m, FAR) == tuple(
            b if n < 40 else 0 for n, b in enumerate(binomials))


# -- complement relation ----------------------------------------------------

def test_relation_repeated_letter():
    base = free(3)
    q = ReesQuotient(base, RepeatedLetterIdeal(base))
    report = check_hilbert_relation(q, 8)
    assert report.passed, report.counterexample
    # ideal sizes follow the complement of the no-repeat counts
    for n in range(7):
        in_ideal = sum(
            1 for word in base.elements_of_order(n)
            if q.ideal.contains(word))
        assert in_ideal == 3 ** n - falling_factorial(3, n)


def test_relation_min_length():
    base = free(2)
    q = ReesQuotient(base, MinLengthIdeal(base, 3))
    assert check_hilbert_relation(q, 8).passed
    for n in range(8):
        in_ideal = sum(
            1 for word in base.elements_of_order(n) if q.ideal.contains(word))
        assert in_ideal == (2 ** n if n >= 3 else 0)


def test_ideal_empty_at_degree_zero():
    for k in (1, 2, 3):
        base = free(k)
        for ideal in builtin_free_ideals(base):
            assert not ideal.contains(())


def test_relation_requires_free_base():
    cbase = commutative(2)
    q = ReesQuotient(cbase, DegreeAtLeastIdeal(cbase, 2))
    with pytest.raises(SpecError):
        check_hilbert_relation(q, 4)
    with pytest.raises(ValueError):
        base = free(2)
        check_hilbert_relation(
            ReesQuotient(base, MinLengthIdeal(base, 2)), -1)


# -- one-variable shadow ----------------------------------------------------

def shadow(f):
    """The coefficients of an integer series over a free monoid summed by
    word length, at lengths 0 to its truncation."""
    slots = [0] * (f.truncation + 1)
    for word, coeff in f.terms.items():
        slots[len(word)] += coeff
    return slots


def test_evaluation_of_sectioned_characteristic():
    # e(s(zeta of quotient)) = e(zeta of base) - e(indicator of ideal)
    base = free(3)
    q = ReesQuotient(base, RepeatedLetterIdeal(base))
    zq = characteristic_series(q, 6)
    lifted = section(q, zq)
    left = shadow(lifted)
    zeta_base = characteristic_series(base, 6)
    indicator = {}
    for n in range(7):
        for word in base.elements_of_order(n):
            if q.ideal.contains(word):
                indicator[word] = 1
    right_full = shadow(zeta_base)
    right_ideal = shadow(Series(base, 6, indicator))
    assert left == [a - b for a, b in zip(right_full, right_ideal)]
    # and the counts are exactly the quotient Hilbert prefix
    assert left == list(hilbert_prefix(q, 6))


def test_evaluation_is_multiplicative_to_order():
    rng = random.Random(53)
    m = free(2)
    for _ in range(25):
        f = random_series(rng, m, 6)
        g = random_series(rng, m, 6)
        ef = shadow(f)
        eg = shadow(g)
        product = [0] * 7
        for i, a in enumerate(ef):
            for j, b in enumerate(eg):
                if i + j <= 6:
                    product[i + j] += a * b
        assert shadow(cauchy_product(f, g)) == product


# -- rendering --------------------------------------------------------------

def test_poly_text():
    assert poly_text([1, 3, 6, 6]) == "1 + 3t + 6t^2 + 6t^3"
    assert poly_text([0, 1, 0, 2]) == "t + 2t^3"
    assert poly_text([0, 0]) == "0"
    assert poly_text([1, -1, -3]) == "1 - t - 3t^2"
    assert poly_text([-2]) == "-2"

