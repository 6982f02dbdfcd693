import random

import pytest

from mobzero import (
    GeneratedIdeal,
    MinLengthIdeal,
    MonoidMismatchError,
    ProperError,
    ReesQuotient,
    RepeatedLetterIdeal,
    Series,
    cauchy_product,
    characteristic_series,
    check_mobius_transfer,
    mobius_series,
    parse_ideal,
    phi,
    section,
)

from helpers import (
    add_vectors, check_lemma_inverse_via_section, commutative,
    commutative_image, free, random_series, series_from_letterlists,
    standard_words, vector_word)


def w(m, text):
    return m.word_from_letters(list(text))


def S(m, truncation, pairs):
    return series_from_letterlists(m, truncation, pairs)


def ideal_indicator(q, truncation):
    """Characteristic series of the ideal inside the base algebra."""
    terms = {}
    for n in range(truncation + 1):
        for word in q.base.elements_of_order(n):
            if q.ideal.contains(word):
                terms[word] = 1
    return Series(q.base, truncation, terms)


# -- context: the quotient alone fixes every map -----------------------------

def test_context_builds_quotient():
    base = free(3)
    ideal = RepeatedLetterIdeal(base)
    q = ReesQuotient(base, ideal)
    assert (q.base, q.ideal) == (base, ideal)
    assert q == standard_words()


# -- phi --------------------------------------------------------------------

def test_phi_of_characteristic_series():
    q = standard_words()
    zeta_base = characteristic_series(q.base, 4)
    assert phi(q, zeta_base) == characteristic_series(q, 4)


def test_phi_drops_ideal_terms():
    q = standard_words()
    f = S(q.base, 4, [(1, "a"), (1, "ab"), (1, "aba")])
    assert phi(q, f) == S(q, 4, [(1, "a"), (1, "ab")])


def test_phi_kills_ideal_indicator():
    q = standard_words()
    assert not phi(q, ideal_indicator(q, 5)).terms


def test_phi_kernel_is_ideal_support():
    q = standard_words()
    rng = random.Random(13)
    for _ in range(30):
        f = random_series(rng, q.base, 5)
        image = phi(q, f)
        killed = not image.terms
        supported_on_ideal = all(
            q.ideal.contains(word) for word in f.terms)
        assert killed == supported_on_ideal


def test_phi_checks_carrier():
    q = standard_words()
    with pytest.raises(MonoidMismatchError) as err:
        phi(q, Series.one(q, 4))
    assert str(err.value) == (
        "phi expects a series over free monoid on {a, b, c}, got one over "
        "Rees quotient of free monoid on {a, b, c} by repeated-letter ideal")
    with pytest.raises(MonoidMismatchError) as err:
        phi(q, Series.one(free(2), 4))
    assert str(err.value) == (
        "phi expects a series over free monoid on {a, b, c}, got one over "
        "free monoid on {a, b}")


def test_phi_is_multiplicative():
    q = standard_words()
    rng = random.Random(17)
    one_b = Series.one(q.base, 6)
    assert phi(q, one_b) == Series.one(q, 6)
    for _ in range(50):
        f = random_series(rng, q.base, 6)
        g = random_series(rng, q.base, 6)
        assert phi(q, cauchy_product(f, g)) == \
            cauchy_product(phi(q, f), phi(q, g))


# -- section ----------------------------------------------------------------

def test_section_of_characteristic_is_zeta_minus_indicator():
    q = standard_words()
    zeta_quotient = characteristic_series(q, 5)
    zeta_base = characteristic_series(q.base, 5)
    assert section(q, zeta_quotient) == zeta_base - ideal_indicator(q, 5)


def test_section_of_one():
    q = standard_words()
    assert section(q, Series.one(q, 4)) == Series.one(q.base, 4)


def test_phi_section_roundtrip():
    q = standard_words()
    rng = random.Random(29)
    for _ in range(30):
        f = random_series(rng, q, 6)
        assert phi(q, section(q, f)) == f


def test_section_is_linear():
    q = standard_words()
    rng = random.Random(37)
    for _ in range(20):
        f = random_series(rng, q, 5)
        g = random_series(rng, q, 5)
        assert section(q, f + g) == section(q, f) + section(q, g)
        assert section(q, 3 * f) == 3 * section(q, f)


def test_section_not_multiplicative_witness():
    # a*a dies in the quotient but lives over the base, so the section
    # cannot commute with products
    q = standard_words()
    a_q = S(q, 4, [(1, "a")])
    product_then_lift = section(q, cauchy_product(a_q, a_q))
    lift_then_product = cauchy_product(section(q, a_q), section(q, a_q))
    assert not product_then_lift.terms
    assert lift_then_product == S(q.base, 4, [(1, "aa")])
    assert product_then_lift != lift_then_product


def test_section_checks_carrier():
    q = standard_words()
    with pytest.raises(MonoidMismatchError) as err:
        section(q, Series.one(q.base, 4))
    assert str(err.value) == (
        "section expects a series over Rees quotient of free monoid on "
        "{a, b, c} by repeated-letter ideal, got one over free monoid on "
        "{a, b, c}")


# -- ev: the letter-count map, a word's letters as a commutative word -------

def test_ev_counts_letters():
    m = free(2)
    cm = commutative(2)
    assert cm._element(w(m, "aba")) == w(cm, "aab")
    assert commutative_image(w(m, "aba"), 2) == (2, 1)
    assert cm._element(()) == ()


def test_ev_is_a_morphism():
    rng = random.Random(43)
    cm = commutative(3)
    ev = cm._element
    for _ in range(40):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        assert ev(u + v) == cm._mul(ev(u), ev(v)) == vector_word(
            add_vectors(commutative_image(u, 3), commutative_image(v, 3)))


# -- inverse via section ----------------------------------------------------

def test_inverse_via_section_on_characteristic():
    q = standard_words()
    zeta_q = characteristic_series(q, 6)
    report = check_lemma_inverse_via_section(q, zeta_q)
    assert report.passed, report.counterexample
    # and the common value is the quotient Mobius series
    one = Series.one(q, 6)
    from mobzero import star
    assert star(one - zeta_q) == mobius_series(q, 6)


def test_inverse_via_section_on_one():
    q = standard_words()
    report = check_lemma_inverse_via_section(
        q, Series.one(q, 4))
    assert report.passed


def test_inverse_via_section_randomized():
    q = standard_words()
    rng = random.Random(47)
    one = Series.one(q, 6)
    for _ in range(25):
        f = one + random_series(rng, q, 6, proper=True)
        report = check_lemma_inverse_via_section(q, f)
        assert report.passed, report.counterexample


def test_inverse_via_section_requires_unit_augmentation():
    q = standard_words()
    with pytest.raises(ProperError):
        check_lemma_inverse_via_section(
            q, S(q, 4, [(2, ""), (1, "a")]))
    with pytest.raises(MonoidMismatchError) as err:
        check_lemma_inverse_via_section(q, Series.one(q.base, 4))
    assert str(err.value) == (
        "expected a series over Rees quotient of free monoid on "
        "{a, b, c} by repeated-letter ideal, got one over free monoid on "
        "{a, b, c}")


# -- mobius transfer --------------------------------------------------------

def test_transfer_standard_words():
    q = standard_words()
    report = check_mobius_transfer(q, 8)
    assert report.passed, report.counterexample
    assert any("avoids the ideal" in note for note in report.notes)
    # support disjoint from the ideal: base and quotient series agree termwise
    assert mobius_series(q.base, 8).terms == mobius_series(q, 8).terms


def test_transfer_generated_ideal_drops_letter():
    base = free(3)
    q = ReesQuotient(base, GeneratedIdeal(base, [w(base, "c")]))
    report = check_mobius_transfer(q, 6)
    assert report.passed, report.counterexample
    assert any("meets the ideal" in note for note in report.notes)
    assert mobius_series(q, 6) == S(q, 6, [(1, ""), (-1, "a"), (-1, "b")])


def test_transfer_ev_preimage():
    base = free(3)
    q = ReesQuotient(base, parse_ideal(
        {"kind": "ev-preimage",
         "inner": {"kind": "degree-at-least", "d": 2}}, base))
    assert check_mobius_transfer(q, 6).passed
    assert mobius_series(q, 6) == \
        S(q, 6, [(1, ""), (-1, "a"), (-1, "b"), (-1, "c")])


def test_transfer_min_length_and_degree():
    base = free(2)
    q = ReesQuotient(base, MinLengthIdeal(base, 3))
    assert check_mobius_transfer(q, 6).passed
    cbase = commutative(2)
    cq = ReesQuotient(cbase, MinLengthIdeal(cbase, 3))
    assert check_mobius_transfer(cq, 6).passed
