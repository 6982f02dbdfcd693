import random

import pytest

from mobzero import (
    ContextMismatchError,
    DegreeAtLeastIdeal,
    EvPreimageIdeal,
    GeneratedIdeal,
    MinLengthIdeal,
    ProperError,
    QuotientContext,
    ReesQuotient,
    RepeatedLetterIdeal,
    Series,
    SpecError,
    cauchy_product,
    characteristic_series,
    check_lemma_inverse_via_section,
    check_mobius_transfer,
    mobius_series,
    phi,
    random_series,
    section,
)

from helpers import (
    add_vectors, commutative, commutative_image, free, series_from_letterlists,
    standard_words, vector_word)


def w(m, text):
    return m.word_from_letters(list(text))


def S(m, truncation, pairs):
    return series_from_letterlists(m, truncation, pairs)


def standard_context(k=3):
    base = free(k)
    return QuotientContext(base, RepeatedLetterIdeal(base))


def ideal_indicator(ctx, truncation):
    """Characteristic series of the ideal inside the base algebra."""
    terms = {}
    for n in range(truncation + 1):
        for word in ctx.base.elements_of_order(n):
            if ctx.ideal.contains(word):
                terms[word] = 1
    return Series(ctx.base, truncation, terms)


# -- context ----------------------------------------------------------------

def test_context_builds_quotient():
    ctx = standard_context()
    assert isinstance(ctx.quotient, ReesQuotient)
    assert ctx.quotient == standard_words()
    assert ctx == QuotientContext.from_quotient(standard_words())


def test_context_rejects_mismatches():
    base = free(3)
    with pytest.raises(SpecError):
        QuotientContext(free(2), RepeatedLetterIdeal(base))
    with pytest.raises(SpecError):
        QuotientContext(base, RepeatedLetterIdeal(base),
                        quotient=standard_words(2))
    with pytest.raises(SpecError):
        # non-proper ideal dies at quotient construction
        QuotientContext(base, GeneratedIdeal(base, [()]))


# -- phi --------------------------------------------------------------------

def test_phi_of_characteristic_series():
    ctx = standard_context()
    zeta_base = characteristic_series(ctx.base, 4)
    assert phi(ctx, zeta_base) == characteristic_series(ctx.quotient, 4)


def test_phi_drops_ideal_terms():
    ctx = standard_context()
    f = S(ctx.base, 4, [(1, "a"), (1, "ab"), (1, "aba")])
    assert phi(ctx, f) == S(ctx.quotient, 4, [(1, "a"), (1, "ab")])


def test_phi_kills_ideal_indicator():
    ctx = standard_context()
    assert phi(ctx, ideal_indicator(ctx, 5)).is_zero()


def test_phi_kernel_is_ideal_support():
    ctx = standard_context()
    rng = random.Random(13)
    for _ in range(30):
        f = random_series(rng, ctx.base, 5)
        image = phi(ctx, f)
        killed = image.is_zero()
        supported_on_ideal = all(
            ctx.ideal.contains(word) for word in f.terms)
        assert killed == supported_on_ideal


def test_phi_checks_carrier():
    ctx = standard_context()
    with pytest.raises(ContextMismatchError):
        phi(ctx, Series.one(ctx.quotient, 4))
    with pytest.raises(ContextMismatchError):
        phi(ctx, Series.one(free(2), 4))


def test_phi_is_multiplicative():
    ctx = standard_context()
    rng = random.Random(17)
    one_b = Series.one(ctx.base, 6)
    assert phi(ctx, one_b) == Series.one(ctx.quotient, 6)
    for _ in range(50):
        f = random_series(rng, ctx.base, 6)
        g = random_series(rng, ctx.base, 6)
        assert phi(ctx, cauchy_product(f, g)) == \
            cauchy_product(phi(ctx, f), phi(ctx, g))


# -- section ----------------------------------------------------------------

def test_section_of_characteristic_is_zeta_minus_indicator():
    ctx = standard_context()
    zeta_quotient = characteristic_series(ctx.quotient, 5)
    zeta_base = characteristic_series(ctx.base, 5)
    assert section(ctx, zeta_quotient) == zeta_base - ideal_indicator(ctx, 5)


def test_section_of_one():
    ctx = standard_context()
    assert section(ctx, Series.one(ctx.quotient, 4)) == \
        Series.one(ctx.base, 4)


def test_phi_section_roundtrip():
    ctx = standard_context()
    rng = random.Random(29)
    for _ in range(30):
        f = random_series(rng, ctx.quotient, 6)
        assert phi(ctx, section(ctx, f)) == f


def test_section_is_linear():
    ctx = standard_context()
    rng = random.Random(37)
    for _ in range(20):
        f = random_series(rng, ctx.quotient, 5)
        g = random_series(rng, ctx.quotient, 5)
        assert section(ctx, f + g) == section(ctx, f) + section(ctx, g)
        assert section(ctx, 3 * f) == 3 * section(ctx, f)


def test_section_not_multiplicative_witness():
    # a*a dies in the quotient but lives over the base, so the section
    # cannot commute with products
    ctx = standard_context()
    a_q = S(ctx.quotient, 4, [(1, "a")])
    product_then_lift = section(ctx, cauchy_product(a_q, a_q))
    lift_then_product = cauchy_product(section(ctx, a_q), section(ctx, a_q))
    assert product_then_lift.is_zero()
    assert lift_then_product == S(ctx.base, 4, [(1, "aa")])
    assert product_then_lift != lift_then_product


def test_section_checks_carrier():
    ctx = standard_context()
    with pytest.raises(ContextMismatchError):
        section(ctx, Series.one(ctx.base, 4))


# -- ev: the letter-count map, a word's letters as a commutative word -------

def test_ev_counts_letters():
    m = free(2)
    cm = commutative(2)
    assert cm._from_indices(w(m, "aba")) == w(cm, "aab")
    assert commutative_image(w(m, "aba"), 2) == (2, 1)
    assert cm._from_indices(m.identity()) == cm.identity()


def test_ev_is_a_morphism():
    rng = random.Random(43)
    cm = commutative(3)
    ev = cm._from_indices
    for _ in range(40):
        u = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(6)))
        assert ev(u + v) == cm._mul(ev(u), ev(v)) == vector_word(
            add_vectors(commutative_image(u, 3), commutative_image(v, 3)))


# -- inverse via section ----------------------------------------------------

def test_inverse_via_section_on_characteristic():
    ctx = standard_context()
    zeta_q = characteristic_series(ctx.quotient, 6)
    report = check_lemma_inverse_via_section(ctx, zeta_q)
    assert report.passed, report.counterexample
    # and the common value is the quotient Mobius series
    one = Series.one(ctx.quotient, 6)
    from mobzero import star
    assert star(one - zeta_q) == mobius_series(ctx.quotient, 6)


def test_inverse_via_section_on_one():
    ctx = standard_context()
    report = check_lemma_inverse_via_section(
        ctx, Series.one(ctx.quotient, 4))
    assert report.passed


def test_inverse_via_section_randomized():
    ctx = standard_context()
    rng = random.Random(47)
    one = Series.one(ctx.quotient, 6)
    for _ in range(25):
        f = one + random_series(rng, ctx.quotient, 6, proper=True)
        report = check_lemma_inverse_via_section(ctx, f)
        assert report.passed, report.counterexample


def test_inverse_via_section_requires_unit_augmentation():
    ctx = standard_context()
    with pytest.raises(ProperError):
        check_lemma_inverse_via_section(
            ctx, S(ctx.quotient, 4, [(2, ""), (1, "a")]))
    with pytest.raises(ContextMismatchError):
        check_lemma_inverse_via_section(ctx, Series.one(ctx.base, 4))


# -- mobius transfer --------------------------------------------------------

def test_transfer_standard_words():
    ctx = standard_context()
    report = check_mobius_transfer(ctx, 8)
    assert report.passed, report.counterexample
    assert any("avoids the ideal" in note for note in report.notes)
    # support disjoint from the ideal: base and quotient series agree termwise
    assert mobius_series(ctx.base, 8).terms == \
        mobius_series(ctx.quotient, 8).terms


def test_transfer_generated_ideal_drops_letter():
    base = free(3)
    ctx = QuotientContext(base, GeneratedIdeal(base, [w(base, "c")]))
    report = check_mobius_transfer(ctx, 6)
    assert report.passed, report.counterexample
    assert any("meets the ideal" in note for note in report.notes)
    assert mobius_series(ctx.quotient, 6) == \
        S(ctx.quotient, 6, [(1, ""), (-1, "a"), (-1, "b")])


def test_transfer_ev_preimage():
    base = free(3)
    inner = DegreeAtLeastIdeal(commutative(3), 2)
    ctx = QuotientContext(base, EvPreimageIdeal(base, inner))
    assert check_mobius_transfer(ctx, 6).passed
    assert mobius_series(ctx.quotient, 6) == \
        S(ctx.quotient, 6, [(1, ""), (-1, "a"), (-1, "b"), (-1, "c")])


def test_transfer_min_length_and_degree():
    base = free(2)
    ctx = QuotientContext(base, MinLengthIdeal(base, 3))
    assert check_mobius_transfer(ctx, 6).passed
    cbase = commutative(2)
    cctx = QuotientContext(cbase, DegreeAtLeastIdeal(cbase, 3))
    assert check_mobius_transfer(cctx, 6).passed
