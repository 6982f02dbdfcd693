import gc
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mobzero import (
    INTEGERS,
    AlgebraError,
    DegreeAtLeastIdeal,
    FreeCommutativeMonoid,
    FreeMonoid,
    GeneratedIdeal,
    IntegerModRing,
    MembershipError,
    MinLengthIdeal,
    MonoidMismatchError,
    ProperError,
    RATIONALS,
    ReesQuotient,
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
    series_to_json,
    star,
)

import mobzero.series as series_module

from helpers import (
    IdempotentMonoid,
    InsertingMonoid,
    alphabet,
    builtin_free_ideals,
    builtin_monoids,
    cauchy_by_pairs,
    commutative,
    free,
    mobius_by_star,
    mobius_by_triangular_solve,
    power,
    random_series,
    residue_monoids,
    series_from_letterlists,
    standard_words,
    star_by_pairs,
    star_by_powers,
)


def w(m, text):
    return m.word_from_letters(list(text))


def S(m, truncation, pairs, ring=INTEGERS):
    return series_from_letterlists(m, truncation, pairs, ring)


# -- rings ------------------------------------------------------------------

def test_rings_equal_by_class_and_name():
    rings = {INTEGERS, RATIONALS, IntegerModRing(5), IntegerModRing(7),
             IntegerModRing(7)}
    assert len(rings) == 4
    assert Ring("integers", int) == INTEGERS
    assert IntegerModRing(7) != INTEGERS


def test_rings_with_other_value_types_differ():
    # a ring named "integers" on Fractions is not INTEGERS, so its series
    # cannot carry a Fraction into a series over the integers
    fractions = Ring("integers", Fraction)
    assert fractions != INTEGERS
    m = free(2)
    half = Series(m, 2, {(0,): Fraction(1, 2)}, fractions)
    for combine in (lambda f, g: f + g, lambda f, g: f - g, cauchy_product,
                    convolve_oracle):
        with pytest.raises(MonoidMismatchError):
            combine(Series.one(m, 2), half)
        with pytest.raises(MonoidMismatchError):
            combine(half, Series.one(m, 2))


@pytest.mark.parametrize("value_type", [float, bool, complex, str])
def test_ring_accepts_only_exact_value_types(value_type):
    with pytest.raises(ValueError):
        Ring("inexact", value_type)


def test_ring_values_come_from_the_value_type():
    assert type(RATIONALS.one) is Fraction and RATIONALS.from_int(3) == 3
    assert type(RATIONALS.from_int(3)) is Fraction
    assert INTEGERS.zero == 0 and INTEGERS.one == 1
    mod7 = IntegerModRing(7)
    assert (mod7.zero, mod7.one, mod7.from_int(-1)) == (0, 1, 6)
    # a residue is never negative, so -1 renders as 6 in text and JSON
    m = free(2)
    minus_a = Series(m, 2, {w(m, "a"): -1}, mod7)
    assert minus_a.render() == "6a"
    assert json.loads(series_to_json(minus_a))["terms"] == [["6", ["a"]]]
    assert Series(m, 2, {w(m, "a"): -2}).render() == "-2a"


def test_random_series_drops_draws_that_are_zero_in_the_ring():
    # every even draw is zero mod 2, and no series stores a zero coefficient
    mod2 = IntegerModRing(2)
    rng = random.Random(3)
    for _ in range(20):
        f = random_series(rng, free(2), 4, ring=mod2)
        assert mod2.zero not in f.terms.values()


# -- construction and normalization ----------------------------------------

def test_construction_normalizes():
    m = free(2)
    f = Series(m, 2, {w(m, "a"): 0, w(m, "ab"): 3, w(m, "aba"): 7})
    assert f.terms == {w(m, "ab"): 3}  # zero dropped, beyond-N projected away


def test_construction_validates_membership():
    m = standard_words()
    # aa is not a quotient element
    with pytest.raises(MembershipError, match=(
            r"^\(0, 0\) is not an element of Rees quotient of free monoid "
            r"on \{a, b, c\} by repeated-letter ideal$")):
        Series(m, 4, {(0, 0): 1})


def test_construction_rejects_negative_truncation():
    with pytest.raises(ValueError):
        Series(free(1), -1, {})


@pytest.mark.parametrize("truncation", [2.5, 2.0, "3", Fraction(2), True])
def test_construction_rejects_non_int_truncation(truncation):
    with pytest.raises(ValueError):
        Series(free(1), truncation, {})


def test_construction_reduces_ints_into_the_ring():
    m = free(2)
    a, b = w(m, "a"), w(m, "b")
    assert Series(m, 3, {a: 9, b: 7}, IntegerModRing(7)).terms == {a: 2}
    half = Series(m, 3, {a: 3, b: Fraction(1, 2)}, RATIONALS)
    assert half.terms == {a: Fraction(3), b: Fraction(1, 2)}
    assert all(type(c) is Fraction for c in half.terms.values())


@pytest.mark.parametrize("ring, coeff", [
    (INTEGERS, True),
    (INTEGERS, 0.5),
    (INTEGERS, 2.0),
    (INTEGERS, Fraction(1, 2)),
    (INTEGERS, "3"),
    (RATIONALS, False),
    (RATIONALS, 0.5),
    (IntegerModRing(7), Fraction(1, 2)),
])
def test_construction_rejects_foreign_coefficients(ring, coeff):
    with pytest.raises(TypeError):
        Series(free(1), 3, {(0,): coeff}, ring)


def test_equality_is_strict():
    m = free(1)
    assert Series(m, 3, {(0,): 1}) == Series(m, 3, {(0,): 1})
    assert Series(m, 3, {(0,): 1}) != Series(m, 4, {(0,): 1})
    assert Series(m, 3, {(0,): 1}) != Series(m, 3, {(0,): 1}, RATIONALS)
    assert Series(m, 3, {}) == Series.zero(m, 3)


# -- coefficient ------------------------------------------------------------

def test_coefficient_lookup():
    m = standard_words()
    zeta = characteristic_series(m, 4)
    assert zeta.terms.get(w(m, "abc"), 0) == 1
    mu = mobius_series(m, 4)
    assert mu.terms.get(w(m, "ab"), 0) == 0
    assert Series.zero(m, 4).terms.get(w(m, "a"), 0) == 0


# -- sum and scalar multiple -----------------------------------------------

def test_add_cancellation():
    m = free(2)
    f = S(m, 4, [(2, "a"), (1, "ab")])
    assert f + -1 * f == Series.zero(m, 4)
    assert not (f - f).terms


def test_add_identity_plus_letter():
    m = free(2)
    one_minus_a = S(m, 4, [(1, ""), (-1, "a")])
    a = S(m, 4, [(1, "a")])
    assert one_minus_a + a == Series.one(m, 4)


def test_add_collects_coefficients():
    m = free(2)
    assert S(m, 4, [(2, "a")]) + S(m, 4, [(3, "a")]) == S(m, 4, [(5, "a")])


def test_add_takes_min_truncation():
    m = free(1)
    f = Series(m, 5, {(0,) * 5: 1, (0,): 1})
    g = Series(m, 2, {(0, 0): 1})
    total = f + g
    assert total.truncation == 2
    assert total.terms == {(0,): 1, (0, 0): 1}


def test_add_rejects_mixed_carriers():
    with pytest.raises(MonoidMismatchError):
        Series.one(free(1), 3) + Series.one(free(2), 3)
    with pytest.raises(MonoidMismatchError):
        Series.one(free(1), 3) + Series.one(free(1), 3, RATIONALS)


def test_scalar_mul_by_zero():
    m = free(2)
    assert not (0 * S(m, 3, [(4, "ab")])).terms


def test_scalar_mul_rejects_float_on_integer_series():
    with pytest.raises(TypeError):
        Series.one(free(2), 3) * 0.5
    with pytest.raises(TypeError):
        2.0 * Series.one(free(2), 3)


def test_scalar_mul_rejects_fraction_on_integer_series():
    with pytest.raises(TypeError):
        Series.one(free(2), 3) * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(2) * Series.one(free(2), 3)


@pytest.mark.parametrize("flag", [True, False])
def test_scalar_mul_rejects_bools(flag):
    f = Series.one(free(2), 3)
    with pytest.raises(TypeError):
        flag * f
    with pytest.raises(TypeError):
        f * flag


def test_sum_and_difference_reject_scalars():
    """A scalar is not a series: adding or subtracting one raises
    TypeError, not an error from inside the series arithmetic."""
    f = Series.one(free(2), 3)
    with pytest.raises(TypeError):
        f + 1
    with pytest.raises(TypeError):
        f - 1
    with pytest.raises(TypeError):
        f + 0.5
    with pytest.raises(TypeError):
        f - Fraction(1, 2)


def test_scalar_mul_rejects_fraction_on_mod_series():
    with pytest.raises(TypeError):
        Fraction(1, 2) * Series.one(free(2), 3, IntegerModRing(7))


def test_scalar_mul_keeps_ring_values():
    m = free(2)
    half = Fraction(1, 2) * Series.one(m, 3, RATIONALS)
    assert half.terms == {(): Fraction(1, 2)}
    third = 3 * Series.one(m, 3, RATIONALS)
    assert type(third.terms[()]) is Fraction
    assert (-1 * Series.one(m, 3, IntegerModRing(7))).terms == {(): 6}


# -- cauchy product ---------------------------------------------------------

def test_cauchy_standard_words_example():
    m = standard_words()
    left = S(m, 4, [(1, "a"), (1, "b")])
    right = S(m, 4, [(1, "a"), (1, "c")])
    got = cauchy_product(left, right)
    # brute force over the four term pairs through the quotient product
    expected = {}
    for x in (w(m, "a"), w(m, "b")):
        for y in (w(m, "a"), w(m, "c")):
            z = m._mul(x, y)
            if not isinstance(z, tuple):
                continue
            expected[z] = expected.get(z, 0) + 1
    assert got.terms == expected
    assert got == S(m, 4, [(1, "ac"), (1, "ba"), (1, "bc")])


def test_cauchy_one_is_neutral():
    m = standard_words()
    f = S(m, 4, [(2, "a"), (-1, "bc"), (1, "")])
    assert cauchy_product(Series.one(m, 4), f) == f
    assert cauchy_product(f, Series.one(m, 4)) == f


def test_cauchy_min_length_inverse_pair():
    base = free(2)
    m = ReesQuotient(base, MinLengthIdeal(base, 3))
    f = S(m, 2, [(1, ""), (-1, "a"), (-1, "b")])
    g = S(m, 2, [(1, ""), (1, "a"), (1, "b"), (1, "aa"), (1, "ab"),
                 (1, "ba"), (1, "bb")])
    assert cauchy_product(f, g) == Series.one(m, 2)


def test_cauchy_truncation_is_min():
    m = free(1)
    f = Series(m, 5, {(0,): 1})
    g = Series(m, 3, {(0, 0): 1})
    assert cauchy_product(f, g).truncation == 3


def test_cauchy_memory_does_not_grow_with_the_truncation():
    m = free(2)
    f = Series(m, 10**6, {(0,): 1})
    g = Series(m, 10**6, {(1,): 1})
    tracemalloc.start()
    try:
        fg = cauchy_product(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fg.terms == {(0, 1): 1}
    assert peak < 10**6


def test_star_memory_does_not_grow_with_the_truncation():
    # the star of a^(N/2 + 1) is 1 + a^(N/2 + 1); its solve must cost
    # memory in its terms, not in the orders up to N
    m = free(2)
    n = 10**5
    f = Series(m, n, {(0,) * (n // 2 + 1): 1})
    expected = Series.one(m, n) + f
    tracemalloc.start()
    try:
        s = star(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s == expected
    assert peak < 10**6


def test_oracle_agrees_on_examples():
    m = standard_words()
    pairs = [
        (S(m, 4, [(1, "a"), (1, "b")]), S(m, 4, [(1, "a"), (1, "c")])),
        (Series.one(m, 4), S(m, 4, [(3, "ab"), (1, "")])),
    ]
    for f, g in pairs:
        assert convolve_oracle(f, g) == cauchy_product(f, g)


def test_oracle_equivalence_randomized():
    rng = random.Random(7)
    for m in (standard_words(), free(2), commutative(2)):
        for _ in range(100):
            f = random_series(rng, m, 6)
            g = random_series(rng, m, 6)
            assert cauchy_product(f, g) == convolve_oracle(f, g)


def test_convolve_pairs_gives_each_pair_its_own_product():
    # one index of left-operand words serves every pair, so pairs whose
    # supports share no word, and pairs with a zero side, must each still
    # get exactly their own product
    m = free(3)
    zero = Series.zero(m, 5)
    pairs = [
        (S(m, 5, [(1, "a"), (2, "ab")]), S(m, 5, [(1, "b"), (-1, "")])),
        (zero, S(m, 5, [(4, "a"), (1, "cc")])),
        (S(m, 5, [(3, "c"), (1, "")]), zero),
        (S(m, 5, [(2, "c"), (-1, "bc")]), S(m, 5, [(1, "a"), (5, "ca")])),
        (S(m, 5, [(1, "a"), (1, "")]), S(m, 5, [(-1, "a"), (1, "")])),
    ]
    products = series_module._convolve_pairs(m, INTEGERS, 5, pairs)
    assert products == [cauchy_product(f, g) for f, g in pairs]
    assert products[1] == zero and products[2] == zero
    assert products[4] == S(m, 5, [(1, ""), (-1, "aa")])


def test_check_oracle_equivalence_report():
    report = check_oracle_equivalence(standard_words(), 6)
    assert report.passed


# -- augmentation -----------------------------------------------------------

def test_augmentation_values():
    m = standard_words()
    zeta = characteristic_series(m, 4)
    assert zeta.augmentation() == 1
    assert (zeta - Series.one(m, 4)).augmentation() == 0
    assert Series.zero(m, 4).augmentation() == 0


def test_augmentation_is_multiplicative():
    rng = random.Random(11)
    m = standard_words()
    for _ in range(50):
        f = random_series(rng, m, 5)
        g = random_series(rng, m, 5)
        assert cauchy_product(f, g).augmentation() == \
            f.augmentation() * g.augmentation()


# -- star -------------------------------------------------------------------

# mod 2, sums wrap the modulus many times; mod the Mersenne prime
# 2^89 - 1, products of residues exceed a machine word
RINGS = (INTEGERS, RATIONALS, IntegerModRing(7), IntegerModRing(2),
         IntegerModRing(2 ** 89 - 1))


def test_star_of_zero():
    for m in (free(2), standard_words(), commutative(2)):
        for ring in RINGS:
            for truncation in (0, 4):
                zero = Series.zero(m, truncation, ring)
                assert star(zero) == Series.one(m, truncation, ring)


def test_star_of_terms_at_the_top_order_adds_one():
    # every product of two terms lies beyond the truncation, so s = 1 + f
    for m in (free(2), standard_words(), commutative(2)):
        for ring in RINGS:
            top = m.elements_of_order(3)
            f = Series(m, 3, {x: i + 2 for i, x in enumerate(top)}, ring)
            assert star(f) == Series.one(m, 3, ring) + f, m.describe()
            assert star(f) == star_by_powers(f)[0]


def test_star_standard_words_nilpotent():
    m = standard_words()
    neg_zplus = Series.one(m, 8) - characteristic_series(m, 8)
    result, count = star_by_powers(neg_zplus)
    assert count == 4  # powers 0 through 3; the fourth power vanishes
    assert result == S(m, 8, [(1, ""), (-1, "a"), (-1, "b"), (-1, "c")])
    assert star(neg_zplus) == result


def test_star_geometric_series():
    m = free(1)
    a = S(m, 5, [(1, "a")])
    expected = Series(m, 5, {(0,) * n: 1 for n in range(6)})
    assert star(a) == expected


def test_star_requires_proper():
    m = free(1)
    with pytest.raises(ProperError):
        star(Series.one(m, 3))


def test_star_multiplies_only_grades_that_hold_terms(monkeypatch):
    # s = 1 + a^1000 + a^2000 has two grades above the identity, and only
    # grade 1000 meets an order of f within the truncation; a solver that
    # visited every grade up to the truncation would call the product
    # kernel up to 1000 times
    calls = []
    kernel = series_module._add_products

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(series_module, "_add_products", counted)
    m = free(2)
    f = Series(m, 2000, {(0,) * 1000: 1})
    assert star(f) == Series(m, 2000, {(): 1, (0,) * 1000: 1,
                                       (0,) * 2000: 1})
    assert len(calls) == 1


def test_an_order_too_high_to_be_a_factor_gets_no_seam_key(monkeypatch):
    # f's lowest order is 1, so at N = 4 its order-4 terms can meet no
    # partner within the truncation: star only seeds grade 4 with them,
    # and neither star nor cauchy_product groups them by a seam key
    base = free(3)
    m = ReesQuotient(base, GeneratedIdeal(base, [(0, 1)]))
    keyed = []

    def counted(key):
        def call(word):
            keyed.append(word)
            return key(word)
        return call

    monkeypatch.setattr(m, "_seam_keys", tuple(map(counted, m._seam_keys)))
    f = Series(m, 4, {(2,): 1, (1, 0, 2, 2): 2, (2, 1, 0, 0): -1})
    assert star(f) == star_by_powers(f)[0]
    assert cauchy_product(f, f) == convolve_oracle(f, f)
    assert keyed
    assert [x for x in keyed if len(x) == 4] == []


def test_star_refuses_an_order_that_is_not_superadditive():
    # a*a = a is placed in grade 2 but has order 1; the solver must fail
    # rather than keep a word in the wrong grade
    m = IdempotentMonoid()
    with pytest.raises(AlgebraError, match="not additive"):
        star(Series(m, 2, {(0,): 1}))


def test_star_refuses_a_strictly_superadditive_order():
    # a*a = aaa is placed in grade 2 but has order 3, within the
    # truncation; the solver must fail rather than return a series whose
    # grades disagree with the orders of their words
    m = InsertingMonoid()
    with pytest.raises(AlgebraError, match="not additive"):
        star(Series(m, 3, {(0,): 1}))


def test_star_inverts_one_minus_f():
    rng = random.Random(23)
    for m in (standard_words(), free(2), commutative(2)):
        one = Series.one(m, 8)
        for _ in range(30):
            f = random_series(rng, m, 8, proper=True)
            fs = star(f)
            assert fs.augmentation() == 1
            assert cauchy_product(one - f, fs) == one
            assert cauchy_product(fs, one - f) == one


@pytest.mark.parametrize("k, truncation", [(1, 8), (2, 8), (3, 8), (4, 6)])
def test_star_matches_power_sum(k, truncation):
    rng = random.Random(100 + k)
    for m in builtin_monoids(k):
        for ring in RINGS:
            for _ in range(4):
                f = random_series(rng, m, truncation, proper=True, ring=ring)
                assert star(f) == star_by_powers(f)[0], m.describe()
            neg_zeta = (Series.one(m, truncation, ring)
                        - characteristic_series(m, truncation, ring))
            assert star(neg_zeta) == star_by_powers(neg_zeta)[0], m.describe()


@st.composite
def proper_series(draw):
    k = draw(st.integers(1, 2))
    kind = draw(st.sampled_from([FreeMonoid, FreeCommutativeMonoid]))
    m = kind(alphabet(k))
    truncation = draw(st.integers(0, 5))
    ring = draw(st.sampled_from(RINGS))
    pool = [x for n in range(1, truncation + 1) for x in m.elements_of_order(n)]
    chosen = draw(st.lists(st.sampled_from(pool), max_size=6, unique=True)
                  if pool else st.just([]))
    terms = {x: ring.from_int(draw(st.integers(-3, 3))) for x in chosen}
    return Series(m, truncation, terms, ring)


@settings(max_examples=150, deadline=None)
@given(proper_series())
def test_star_matches_power_sum_property(f):
    assert star(f) == star_by_powers(f)[0]


@pytest.mark.parametrize("m", [free(4), commutative(4)],
                         ids=["free4", "commutative4"])
def test_mobius_matches_triangular_solve_four_letters(m):
    assert mobius_series(m, 8) == mobius_by_triangular_solve(m, 8)


def seeded_operand(rng, m, truncation, top, ring, proper=False):
    """Every element of order at most ``top`` (at least 1 when proper),
    each with a seeded coefficient in [-2, 2]; halved over the rationals,
    so that the coefficients are not all integers.  Dense operands fill
    the seam-key classes with many terms."""
    scale = Fraction(1, 2) if ring is RATIONALS else 1
    grades = m.grades(top)[1 if proper else 0:]
    terms = {x: ring.from_int(rng.randint(-2, 2)) * scale
             for grade in grades for x in grade}
    return Series(m, truncation, terms, ring)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_products_match_per_pair_route(k):
    """cauchy_product, star and mobius_series, which decide collapse once
    per pair of seam-key classes, against the route that asks ``_mul``
    about every term pair and against the factorization oracle."""
    rng = random.Random(k)
    for seed in range(3):
        for m in residue_monoids(k, seed):
            for ring in RINGS:
                one = Series.one(m, 5, ring)
                f = seeded_operand(rng, m, 5, 3, ring)
                g = seeded_operand(rng, m, 5, 3, ring)
                fg = cauchy_product(f, g)
                assert fg == cauchy_by_pairs(f, g), m.describe()
                assert fg == convolve_oracle(f, g), m.describe()

                h = seeded_operand(rng, m, 4, 2, ring, proper=True)
                s = star(h)
                assert s == star_by_pairs(h), m.describe()
                assert s == Series.one(m, 4, ring) + convolve_oracle(s, h)

                zeta = characteristic_series(m, 5, ring)
                mu = mobius_series(m, 5, ring)
                assert mu == star_by_pairs(one - zeta), m.describe()
                assert mu == series_module._mobius_by_grades(m, 5, ring), \
                    m.describe()
                assert convolve_oracle(mu, zeta) == one, m.describe()
                assert convolve_oracle(zeta, mu) == one, m.describe()


def test_cauchy_copies_the_identity_rather_than_multiplying_it(monkeypatch):
    # 1*y = y and x*1 = x, so the identity's terms are copied into the
    # product: no class holding the identity reaches the kernel
    words = []
    kernel = series_module._add_products

    def counted(m, acc, x_classes, y_classes):
        words.extend(x for cls in x_classes + y_classes for x, _ in cls)
        return kernel(m, acc, x_classes, y_classes)

    monkeypatch.setattr(series_module, "_add_products", counted)
    rng = random.Random(5)
    for m in (free(2), standard_words()):
        one = Series.one(m, 4)
        f = seeded_operand(rng, m, 4, 3, INTEGERS, proper=True)
        g = seeded_operand(rng, m, 4, 3, INTEGERS, proper=True)
        for x, y in ((one + f, g), (f, one + g), (one + f, one + g)):
            assert cauchy_product(x, y) == convolve_oracle(x, y)
    assert words
    assert () not in words


@pytest.mark.parametrize("ring, unit", [
    (INTEGERS, -1), (RATIONALS, Fraction(3, 2)), (IntegerModRing(2), 1),
    (IntegerModRing(4), 2)], ids=["integers", "rationals", "mod2", "mod4"])
def test_cauchy_with_the_identity_matches_the_oracle(ring, unit):
    # the identity in one factor, both or neither, at unequal truncations
    # both ways, so the longer factor's terms above the cap must drop;
    # mod 2 a copied term can cancel a product, and mod 4 the copy of
    # 2*2 vanishes on its own
    base = free(3)
    rng = random.Random(11)
    for m in (base, ReesQuotient(base, GeneratedIdeal(base, [(0, 1)]))):
        for tf, tg in ((5, 3), (3, 5)):
            f = seeded_operand(rng, m, tf, tf, ring, proper=True)
            g = seeded_operand(rng, m, tg, tg, ring, proper=True)
            f_one = Series(m, tf, {(): unit}, ring)
            g_one = Series(m, tg, {(): unit}, ring)
            for x, y in ((f, g), (f + f_one, g), (f, g + g_one),
                         (f + f_one, g + g_one)):
                assert cauchy_product(x, y) == convolve_oracle(x, y), (
                    m.describe(), tf, tg)


def test_mobius_memory_stays_near_the_grades_it_reads():
    # the solve over the grades, which the free monoid skips for its
    # closed form and which every monoid without one takes: grade 7,
    # 16,384 of the 21,844 elements, is no factor of a product within the
    # truncation, so it seeds the solve as one dict and is never
    # listed as (word, coefficient) pairs.  A full collection empties the
    # tuple free lists first, so neither call is measured on words the
    # other freed
    m = free(4)

    def peak(run):
        gc.collect()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: series_module._mobius_by_grades(m, 7, INTEGERS)) \
        < 1.6 * peak(lambda: m.grades(7))


# -- characteristic and mobius series ---------------------------------------

def test_characteristic_standard_words():
    m = standard_words()
    zeta = characteristic_series(m, 4)
    assert len(zeta.terms) == 16  # 1 + 3 + 6 + 6
    assert all(c == 1 for c in zeta.terms.values())


def test_characteristic_at_zero_truncation():
    m = free(3)
    assert characteristic_series(m, 0) == Series.one(m, 0)


def test_characteristic_free_two_letters():
    m = free(2)
    zeta = characteristic_series(m, 2)
    assert zeta == S(m, 2, [(1, ""), (1, "a"), (1, "b"), (1, "aa"),
                            (1, "ab"), (1, "ba"), (1, "bb")])


def test_mobius_values():
    m = standard_words()
    assert mobius_series(m, 3) == S(m, 3, [(1, ""), (-1, "a"), (-1, "b"),
                                           (-1, "c")])
    fm = free(3)
    assert mobius_series(fm, 5) == S(fm, 5, [(1, ""), (-1, "a"), (-1, "b"),
                                             (-1, "c")])
    cm = commutative(2)
    assert mobius_series(cm, 2) == S(cm, 2, [(1, ""), (-1, "a"), (-1, "b"),
                                             (1, "ab")])


def test_mobius_matches_triangular_solve():
    """Four routes agree: the closed form where the monoid has one, the
    grades fed straight to the solver, the star of -zeta+, and the
    triangular solve over factorizations."""
    for k in (1, 2, 3):
        base = free(k)
        quotients = [ReesQuotient(base, ideal)
                     for ideal in builtin_free_ideals(base)]
        for m in builtin_monoids(k) + quotients:
            for ring in (INTEGERS, RATIONALS, IntegerModRing(2),
                         IntegerModRing(7)):
                for truncation in (0, 1, 5):
                    mu = mobius_series(m, truncation, ring)
                    assert mu == series_module._mobius_by_grades(
                        m, truncation, ring), (m.describe(), ring, truncation)
                    assert mu == mobius_by_star(m, truncation, ring), \
                        (m.describe(), ring, truncation)
                    assert mu == mobius_by_triangular_solve(
                        m, truncation, ring), (m.describe(), ring, truncation)


def quotient_of_quotient(k, inner_words, outer_words):
    """The free monoid on k letters, cut by the ideal generated by
    ``inner_words`` and then by the one generated by ``outer_words``."""
    base = free(k)
    inner = ReesQuotient(base, GeneratedIdeal(base, inner_words))
    return ReesQuotient(inner, GeneratedIdeal(inner, outer_words))


def closed_form_monoids():
    """The free monoid on {a, b, c}, its quotient by every built-in ideal
    kind and by gen[c, ab], and a quotient of a quotient of it."""
    base = free(3)
    ideals = builtin_free_ideals(base) + [GeneratedIdeal(base, [(2,), (0, 1)])]
    return ([base] + [ReesQuotient(base, ideal) for ideal in ideals]
            + [quotient_of_quotient(3, [(0, 2)], [(2,), (1, 1)])])


@pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, IntegerModRing(2)],
                         ids=["integers", "rationals", "mod2"])
@pytest.mark.parametrize("truncation", [0, 1, 8])
def test_closed_form_matches_both_oracles(ring, truncation):
    """The closed form on the free base and its transfer to quotients,
    against the star of -zeta+ and the triangular solve; mod 2 the -1 of
    every letter is 1."""
    for m in closed_form_monoids():
        assert m._mobius_terms(truncation) is not None, m.describe()
        mu = mobius_series(m, truncation, ring)
        assert mu == mobius_by_star(m, truncation, ring), m.describe()
        assert mu == mobius_by_triangular_solve(m, truncation, ring), \
            m.describe()


def test_no_closed_form_on_the_commutative_base():
    c = commutative(3)
    inner = ReesQuotient(c, DegreeAtLeastIdeal(c, 5))
    for m in (c, inner, ReesQuotient(c, DegreeAtLeastIdeal(c, 3)),
              ReesQuotient(inner, DegreeAtLeastIdeal(inner, 3))):
        assert m._mobius_terms(8) is None, m.describe()


def test_mobius_far_beyond_enumeration(monkeypatch):
    # the closed form and its transfer enumerate nothing, so at an order
    # whose grades could never be listed the answer is the same
    def refuse(self, *args):
        raise AssertionError("enumerated the free monoid")

    monkeypatch.setattr(FreeMonoid, "grades", refuse)
    monkeypatch.setattr(FreeMonoid, "extend", refuse)
    top = 10 ** 8
    m = free(2)
    assert mobius_series(m, top) == S(m, top, [(1, ""), (-1, "a"), (-1, "b")])
    # the inner ideal drops c and the outer one drops b
    q = quotient_of_quotient(3, [(2,)], [(1,), (0, 0, 0)])
    assert mobius_series(q, top) == S(q, top, [(1, ""), (-1, "a")])


def test_unit_inverse_reports():
    for m in (standard_words(), free(2), commutative(3)):
        report = check_unit_inverse(m, 6)
        assert report.passed, report.counterexample


# -- inversion round trip ---------------------------------------------------

def test_invert_left_roundtrip_single_letter():
    m = standard_words()
    f = S(m, 4, [(1, "a")])
    zeta = characteristic_series(m, 4)
    assert mobius_invert_left(cauchy_product(zeta, f)) == f


def test_invert_of_one_is_mobius():
    m = standard_words()
    assert mobius_invert_left(Series.one(m, 4)) == mobius_series(m, 4)
    assert mobius_invert_right(Series.one(m, 4)) == mobius_series(m, 4)


def test_transform_of_zero():
    m = free(2)
    zero = Series.zero(m, 3)
    assert not cauchy_product(characteristic_series(m, 3), zero).terms
    assert not mobius_invert_left(zero).terms


def test_roundtrip_randomized_both_sides():
    rng = random.Random(31)
    for m in (standard_words(), commutative(2)):
        zeta = characteristic_series(m, 6)
        for _ in range(20):
            f = random_series(rng, m, 6)
            assert mobius_invert_left(cauchy_product(zeta, f)) == f
            assert mobius_invert_right(cauchy_product(f, zeta)) == f
            assert cauchy_product(zeta, mobius_invert_left(f)) == f


# -- power ------------------------------------------------------------------

def test_power_nilpotent_in_standard_words():
    rng = random.Random(41)
    m = standard_words()
    for _ in range(20):
        f = random_series(rng, m, 6, proper=True)
        assert not power(f, 4).terms  # max order is 3


def test_power_squared_single_letter():
    m = free(1)
    zplus = characteristic_series(m, 3) - Series.one(m, 3)
    assert power(zplus, 2) == Series(m, 3, {(0, 0): 1, (0, 0, 0): 2})


def test_power_edge_cases():
    m = free(2)
    f = S(m, 3, [(2, "a"), (1, "b")])
    assert power(f, 1) == f
    assert power(f, 0) == Series.one(m, 3)
    with pytest.raises(ValueError):
        power(f, -1)


# -- ring plumbing ----------------------------------------------------------

def sampled_ring_values(ring, rng, count=12):
    return [ring.from_int(rng.randint(-6, 6)) for _ in range(count)]


def test_ring_axioms_sampled():
    """The ring laws on canonical values, with Python's operators and
    ``reduce``; reducing once after several operations equals reducing
    after each, which is what lets the product loops defer it."""
    rng = random.Random(5)
    for ring in RINGS:
        r = ring.reduce
        vals = sampled_ring_values(ring, rng)
        for a in vals[:6]:
            assert r(a) == a and type(a) is ring.value_type
            for b in vals[3:9]:
                assert r(a + b) == r(b + a)
                assert r(a * b) == r(b * a)
                assert r(a + -a) == ring.zero
                assert r(a * ring.one) == a
                for c in vals[6:]:
                    assert r(r(a + b) + c) == r(a + r(b + c))
                    assert r(r(a * b) * c) == r(a * r(b * c))
                    assert r(a * r(b + c)) == r(r(a * b) + r(a * c))
                    assert r(a * b + c) == r(r(a * b) + c)


def test_mod_ring_bounds():
    with pytest.raises(ValueError):
        IntegerModRing(1)
    for modulus in (2.5, 7.0, Fraction(7), True):
        with pytest.raises(ValueError):
            IntegerModRing(modulus)
    assert IntegerModRing(5) == IntegerModRing(5)
    assert IntegerModRing(5) != IntegerModRing(7)


def test_series_mod_two_freshman_dream():
    ring = IntegerModRing(2)
    m = commutative(2)
    f = S(m, 4, [(1, "a"), (1, "b")], ring)
    sq = cauchy_product(f, f)
    # cross terms carry coefficient 2 = 0 mod 2
    assert sq == S(m, 4, [(1, "aa"), (1, "bb")], ring)


def test_rational_coefficients():
    m = free(1)
    half = Series(m, 3, {(0,): Fraction(1, 2)}, RATIONALS)
    assert cauchy_product(half, half).terms == {(0, 0): Fraction(1, 4)}
    assert star(half).terms[(0, 0, 0)] == Fraction(1, 8)


def test_mobius_over_rationals():
    m = standard_words()
    mu = mobius_series(m, 4, RATIONALS)
    assert mu == S(m, 4, [(1, ""), (-1, "a"), (-1, "b"), (-1, "c")],
                   RATIONALS)


# -- valuation and algebra laws --------------------------------------------

def test_min_order_filtration():
    def min_order(f):
        return min(map(len, f.terms), default=math.inf)

    rng = random.Random(19)
    m = free(2)
    for _ in range(40):
        f = random_series(rng, m, 6)
        g = random_series(rng, m, 6)
        fg = cauchy_product(f, g)
        if fg.terms:
            assert min_order(fg) >= min_order(f) + min_order(g)


def test_product_associativity_and_distributivity_sampled():
    rng = random.Random(3)
    for m in (standard_words(), commutative(2)):
        for _ in range(15):
            f = random_series(rng, m, 6)
            g = random_series(rng, m, 6)
            h = random_series(rng, m, 6)
            assert cauchy_product(cauchy_product(f, g), h) == \
                cauchy_product(f, cauchy_product(g, h))
            assert cauchy_product(f, g + h) == \
                cauchy_product(f, g) + cauchy_product(f, h)


# -- rendering and misc -----------------------------------------------------

def test_render_conventions():
    m = standard_words()
    assert mobius_series(m, 4).render() == "1 - a - b - c"
    assert Series.zero(m, 4).render() == "0"
    assert S(m, 4, [(2, "a"), (1, "ab")]).render() == "2a + ab"
    assert S(m, 4, [(-1, "a")]).render() == "-a"
    assert S(m, 4, [(-3, ""), (1, "ba")]).render() == "-3 + ba"


def test_items_sorted_order():
    m = commutative(2)
    f = S(m, 3, [(1, "b"), (1, "a"), (1, "ba"), (1, "aa"), (1, "")])
    rendered = [m.render_word(word) for word, _ in f.items_sorted()]
    assert rendered == ["1", "a", "b", "aa", "ab"]


def test_first_difference_reporting():
    m = free(2)
    f = S(m, 3, [(1, "a")])
    g = S(m, 3, [(2, "a")])
    assert "at a: 1 != 2" == first_difference(f, g)
    assert first_difference(f, f) is None


def test_operator_sugar():
    m = standard_words()
    f = S(m, 4, [(1, "a")])
    g = S(m, 4, [(1, "b")])
    assert (f + g) - g == f
    assert f * g == cauchy_product(f, g)
    assert 3 * f == f * 3 == f + f + f
    assert (-f) + f == Series.zero(m, 4)
    assert star(g - g) == Series.one(m, 4)
    assert not (f * f).terms
