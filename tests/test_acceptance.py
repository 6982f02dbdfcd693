"""Acceptance suite: ten exact criteria, one test and one PASS/FAIL line each.

Everything here runs on exact integer coefficients; equality assertions
are bit-identical series comparisons, so the only pinned tolerances are
the two wall-clock bounds (criteria 1 and 3).  Random sampling is seeded
and therefore reproducible.
"""

import random
import time

from mobzero import (
    DegreeAtLeastIdeal,
    EvPreimageIdeal,
    ReesQuotient,
    Series,
    cauchy_product,
    characteristic_series,
    check_hilbert_relation,
    convolve_oracle,
    hilbert_prefix,
    mobius_invert_left,
    mobius_invert_right,
    mobius_series,
    phi,
    section,
    star,
)

from helpers import (
    builtin_free_ideals,
    builtin_monoids,
    commutative,
    falling_factorial,
    free,
    mobius_by_star,
    mobius_by_triangular_solve,
    power,
    random_series,
    series_from_letterlists,
    standard_words,
    star_by_powers,
)

ALPHABET_SIZES = (1, 2, 3, 4)


def conclude(label, failures):
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if not ok:
        line += f" [{failures[0]}]"
    print(line)
    assert ok, failures


def one_minus_letters(m, truncation, k):
    pairs = [(1, "")] + [(-1, letter) for letter in ("a", "b", "c", "d")[:k]]
    return series_from_letterlists(m, truncation, pairs)


def test_01_standard_words_mobius():
    failures = []
    started = time.perf_counter()
    m = standard_words()
    results = [(truncation, mobius_series(m, truncation))
               for truncation in (3, 5, 8)]
    elapsed = time.perf_counter() - started
    for truncation, got in results:
        if got != one_minus_letters(m, truncation, 3):
            failures.append(f"N={truncation}: got {got.render()}")
        if got != mobius_by_triangular_solve(m, truncation):
            failures.append(f"N={truncation}: differs from the triangular "
                            "solve")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s, bound is 1s")
    conclude("criterion 1: standard-words Mobius series is 1 - a - b - c "
             f"in {elapsed:.2f}s (< 1s)", failures)


def test_02_finite_case_nilpotency():
    failures = []
    m = standard_words()
    zplus = characteristic_series(m, 8) - Series.one(m, 8)
    if power(zplus, 4).terms:
        failures.append("fourth power does not vanish")
    if not power(zplus, 3).terms:
        failures.append("third power vanishes too early")
    result, count = star_by_powers(-zplus)
    if count != 4:
        failures.append(f"star summed {count} powers, expected 4")
    by_hand = Series.zero(m, 8)
    for n in range(4):
        by_hand = by_hand + power(-zplus, n)
    if result != by_hand:
        failures.append("star differs from the explicit four-power sum")
    conclude("criterion 2: fourth power of the proper part vanishes and "
             "star stops after powers 0..3", failures)


def test_03_unit_inverse_suite():
    failures = []
    started = time.perf_counter()
    for k in ALPHABET_SIZES:
        for m in builtin_monoids(k):
            one = Series.one(m, 8)
            zeta = characteristic_series(m, 8)
            mu = mobius_series(m, 8)
            if cauchy_product(mu, zeta) != one:
                failures.append(f"mu*zeta != 1 over {m.describe()}")
            if cauchy_product(zeta, mu) != one:
                failures.append(f"zeta*mu != 1 over {m.describe()}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s, bound is 30s")
    conclude("criterion 3: Mobius inverts the characteristic series both "
             f"ways for every built-in monoid, sizes 1-4, N=8, "
             f"in {elapsed:.1f}s (< 30s)", failures)


def test_04_mobius_transfer():
    failures = []
    for k in ALPHABET_SIZES:
        base = free(k)
        mu_base = mobius_series(base, 8)
        for ideal in builtin_free_ideals(base):
            q = ReesQuotient(base, ideal)
            if phi(q, mu_base) != mobius_by_star(q, 8):
                failures.append(
                    f"transfer fails for {ideal.describe()} on {k} letters")
        cbase = commutative(k)
        cq = ReesQuotient(cbase, DegreeAtLeastIdeal(cbase, 3))
        if phi(cq, mobius_series(cbase, 8)) != mobius_by_star(cq, 8):
            failures.append(f"transfer fails for degree ideal on {k} letters")

    # first branch: ideal misses the letters, so the quotient Mobius
    # series coincides termwise with the free one
    m = standard_words()
    mu_q = mobius_series(m, 8)
    if mu_q != one_minus_letters(m, 8, 3):
        failures.append("repeated-letter branch: wrong quotient series")
    if mu_q.terms != mobius_series(free(3), 8).terms:
        failures.append("repeated-letter branch: termwise match fails")

    # second branch: collapsing the ideal generated by c leaves the
    # Mobius series of the free monoid on the remaining letters
    base = free(3)
    dropped = ReesQuotient(
        base, builtin_free_ideals(base)[2])  # generated({c})
    got = mobius_series(dropped, 8)
    expected = series_from_letterlists(
        dropped, 8, [(1, ""), (-1, "a"), (-1, "b")])
    if got != expected:
        failures.append(f"generated branch: got {got.render()}")
    conclude("criterion 4: projected base Mobius series equals the "
             "quotient's for every built-in ideal; ideals missing the "
             "letters transfer termwise, collapsing a letter leaves the "
             "free series on the rest", failures)


def test_05_ev_preimage_carrier():
    failures = []
    base = free(3)
    ideal = EvPreimageIdeal(base, DegreeAtLeastIdeal(commutative(3), 2))
    m = ReesQuotient(base, ideal)
    if m.elements_of_order(0) != [()]:
        failures.append("identity missing at order 0")
    letters = [m.render_word(w) for w in m.elements_of_order(1)]
    if letters != ["a", "b", "c"]:
        failures.append(f"order-1 carrier is {letters}")
    for n in range(2, 9):
        extra = m.elements_of_order(n)
        if extra:
            failures.append(f"unexpected elements of order {n}: {extra}")
            break
    mu = mobius_series(m, 8)
    if mu != one_minus_letters(m, 8, 3):
        failures.append("Mobius series is not 1 - a - b - c")
    if mu != mobius_by_triangular_solve(m, 8):
        failures.append("Mobius series differs from the triangular solve")
    conclude("criterion 5: letter-count preimage quotient carries exactly "
             "the identity and the letters, with Mobius series "
             "1 - a - b - c", failures)


def test_06_hilbert_relation():
    failures = []
    for k in ALPHABET_SIZES:
        base = free(k)
        for ideal in builtin_free_ideals(base):
            q = ReesQuotient(base, ideal)
            report = check_hilbert_relation(q, 10)
            if not report.passed:
                failures.append(
                    f"{ideal.describe()} on {k} letters: "
                    f"{report.counterexample}")
    fixture = hilbert_prefix(standard_words(), 10)
    if fixture != (1, 3, 6, 6, 0, 0, 0, 0, 0, 0, 0):
        failures.append(f"standard-words counts {fixture}")
    for k in ALPHABET_SIZES:
        got = hilbert_prefix(standard_words(k), 10)
        want = tuple(falling_factorial(k, n) for n in range(11))
        if got != want:
            failures.append(f"falling-factorial mismatch at {k} letters")
    base2 = free(2)
    cut = ReesQuotient(base2, builtin_free_ideals(base2)[1])  # min-length(3)
    got = hilbert_prefix(cut, 10)
    if got != (1, 2, 4) + (0,) * 8:
        failures.append(f"min-length counts {got}")
    conclude("criterion 6: surviving plus ideal word counts equal the "
             "alphabet power through degree 10 for every built-in ideal, "
             "fixtures included", failures)


def test_07_star_group_properties():
    failures = []
    rng = random.Random(2024)
    for k in ALPHABET_SIZES:
        for m in builtin_monoids(k):
            one = Series.one(m, 8)
            for i in range(100):
                f = random_series(rng, m, 8, proper=True)
                fs = star(f)
                if fs.augmentation() != 1:
                    failures.append(
                        f"<f*,1> != 1 over {m.describe()} sample {i}")
                    break
                if cauchy_product(one - f, fs) != one or \
                        cauchy_product(fs, one - f) != one:
                    failures.append(
                        f"(1-f) f* != 1 over {m.describe()} sample {i}")
                    break
    conclude("criterion 7: 100 seeded proper series per built-in monoid "
             "satisfy (1-f) f* = f* (1-f) = 1 with unit term 1", failures)


def test_08_oracle_equivalence():
    failures = []
    rng = random.Random(77)
    for k in ALPHABET_SIZES:
        for m in builtin_monoids(k):
            for i in range(100):
                f = random_series(rng, m, 6)
                g = random_series(rng, m, 6)
                if cauchy_product(f, g) != convolve_oracle(f, g):
                    failures.append(
                        f"products disagree over {m.describe()} pair {i}")
                    break
    conclude("criterion 8: pair-loop and factorization convolutions agree "
             "on 100 seeded pairs per built-in monoid at N=6", failures)


def test_09_inversion_roundtrip():
    failures = []
    rng = random.Random(99)
    for k in ALPHABET_SIZES:
        for m in builtin_monoids(k):
            zeta = characteristic_series(m, 6)
            for i in range(10):
                f = random_series(rng, m, 6)
                if mobius_invert_left(cauchy_product(zeta, f)) != f:
                    failures.append(
                        f"left roundtrip over {m.describe()} sample {i}")
                    break
                if mobius_invert_right(cauchy_product(f, zeta)) != f:
                    failures.append(
                        f"right roundtrip over {m.describe()} sample {i}")
                    break
    conclude("criterion 9: Mobius inversion undoes the zeta transform on "
             "both sides for seeded series at N=6", failures)


def test_10_morphism_laws():
    failures = []
    rng = random.Random(123)
    base = free(3)
    q = ReesQuotient(base, builtin_free_ideals(base)[0])
    for i in range(100):
        f = random_series(rng, q.base, 6)
        g = random_series(rng, q.base, 6)
        fg = cauchy_product(f, g)
        if phi(q, fg) != cauchy_product(phi(q, f), phi(q, g)):
            failures.append(f"projection not multiplicative, pair {i}")
            break
        if fg.augmentation() != f.augmentation() * g.augmentation():
            failures.append(f"augmentation not multiplicative, pair {i}")
            break
    for i in range(100):
        h = random_series(rng, q, 6)
        if phi(q, section(q, h)) != h:
            failures.append(f"projection of section is not identity, "
                            f"sample {i}")
            break

    # concrete witness that the section is not multiplicative:
    # a*a = 0 in the quotient, but the lifts multiply to aa over the base
    a_q = series_from_letterlists(q, 6, [(1, "a")])
    lifted_product = cauchy_product(section(q, a_q), section(q, a_q))
    collapsed = section(q, cauchy_product(a_q, a_q))
    if collapsed.terms:
        failures.append("witness broke: a*a survived the quotient")
    if lifted_product.render() != "aa":
        failures.append("witness broke: lifted product is not aa")
    conclude("criterion 10: projection and augmentation are multiplicative, "
             "projection undoes the section, and s(a)s(a)=aa while "
             "s(a*a)=0 witnesses non-multiplicativity of s", failures)
