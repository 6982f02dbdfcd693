"""Grade enumeration by extending the grade below, checked against the
filter over every word of the root base; residue classes, which
``hilbert_prefix`` counts by, checked against that filter's counts;
quotient factorizations checked against the filtered base
factorizations; membership of extensions and of quotient products,
tested at the seam, checked against full membership."""

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from mobzero import (
    AdjoinedZero,
    DegreeAtLeastIdeal,
    EvPreimageIdeal,
    GeneratedIdeal,
    IdealSpec,
    InfiniteGradeError,
    MinLengthIdeal,
    ReesQuotient,
    RepeatedLetterIdeal,
    ZERO,
    ZeroMonoid,
    cauchy_product,
    characteristic_series,
    convolve_oracle,
    hilbert_prefix,
    random_series,
)
from mobzero.cli import main

from helpers import (
    alphabet,
    builtin_free_ideals,
    commutative,
    commutative_image,
    counts_by_filter,
    elements_by_filter,
    factorizations_by_filter,
    free,
)

TOP = 7


def seeded_generators(rng, k):
    """Two to four random words of length 1 to 3, none of them empty."""
    return [tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(2, 4))]


def builtin_quotients(k, seed):
    """Every built-in ideal over free, free commutative and adjoin-zero
    bases on k letters, plus a generated ideal with seeded generators."""
    rng = random.Random(seed)
    out = []
    for base in (free(k), AdjoinedZero(free(k))):
        ideals = builtin_free_ideals(base)
        ideals.append(GeneratedIdeal(base, seeded_generators(rng, k)))
        out.extend(ReesQuotient(base, ideal) for ideal in ideals)
    for base in (commutative(k), AdjoinedZero(commutative(k))):
        for d in (1, 3, 5):
            out.append(ReesQuotient(base, DegreeAtLeastIdeal(base, d)))
    return out


def quotients_of_quotients(k, seed):
    """Repeated-letter and seeded generated ideals over a min-length, a
    fixed generated and a seeded generated quotient of the free monoid
    on k letters."""
    rng = random.Random(seed)
    base = free(k)
    # generators of length 2 and 3 leave every letter in the inner quotient
    longer = [g + g[:1] for g in seeded_generators(rng, k) if len(g) < 3]
    out = []
    for inner_ideal in (MinLengthIdeal(base, 6),
                        GeneratedIdeal(base, [(0, k - 1)]),
                        GeneratedIdeal(base, [(0, k - 1)] + longer)):
        inner = ReesQuotient(base, inner_ideal)
        words = [g for g in seeded_generators(rng, k) if inner.contains(g)]
        out.append(ReesQuotient(inner, RepeatedLetterIdeal(inner)))
        out.append(ReesQuotient(
            inner, GeneratedIdeal(inner, words or [(k - 1,)])))
    return out


class FirstAndLastLetterIdeal(IdealSpec):
    """Commutative words that use both the first and the last letter; it
    names no residue of its own."""

    kind = "first-and-last-letter"

    def contains(self, word):
        counts = commutative_image(word, len(self.base.alphabet()))
        return counts[0] > 0 and counts[-1] > 0


def residue_monoids(k, seed):
    """Every realization that defines or passes on a residue, over k
    letters: the bases, their adjoined zeros, every built-in quotient,
    quotients of quotients, an adjoined zero over a quotient, and
    quotients by an ideal with the default residue, directly and pulled
    back along the letter counts."""
    inner = FirstAndLastLetterIdeal(commutative(k))
    quotients = (builtin_quotients(k, seed) + quotients_of_quotients(k, seed)
                 + [ReesQuotient(commutative(k), inner),
                    ReesQuotient(free(k), EvPreimageIdeal(free(k), inner))])
    return ([free(k), commutative(k), AdjoinedZero(free(k)),
             AdjoinedZero(commutative(k)), AdjoinedZero(quotients[0])]
            + quotients)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_equal_residues_have_equal_extension_residues(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            first = {}
            for n, grade in enumerate(m.grades(6)):
                for word in grade:
                    residues = Counter(map(m.residue, m.extend(word)))
                    assert first.setdefault((n, m.residue(word)), residues) \
                        == residues, (m.describe(), word)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hilbert_prefix_matches_walk_counts(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            assert hilbert_prefix(m, 8).counts == counts_by_filter(m, 8), \
                m.describe()
            assert hilbert_prefix(m, 0).counts == (1,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quotient_factorizations_are_the_filtered_base_ones(k):
    for seed in range(3):
        for q in builtin_quotients(k, seed) + quotients_of_quotients(k, seed):
            for x in itertools.chain.from_iterable(q.grades(6)):
                assert q.factorizations(x) == factorizations_by_filter(q, x), \
                    (q.describe(), x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grades_are_in_display_order_and_match_filter(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            grades = m.grades(TOP)
            for n, grade in enumerate(grades):
                assert grade == sorted(grade), (m.describe(), n)
                assert grade == elements_by_filter(m, n), (m.describe(), n)
            assert AdjoinedZero(m).grades(TOP) == grades, m.describe()


@pytest.mark.parametrize("k", [2, 3])
def test_contains_extension_agrees_with_contains(k):
    for seed in range(3):
        for q in builtin_quotients(k, seed):
            ideal = q.ideal
            for grade in q.grades(TOP - 1):
                for parent in grade:
                    for word in q.base.extend(parent):
                        assert (ideal.contains_extension(word)
                                == ideal.contains(word)), (q.describe(), word)


def products(q, top):
    """Every pair of elements x, y of q whose orders sum to at most top,
    as (x, z) with z the base product xy when that is not ZERO: what
    ``ReesQuotient._mul`` asks the ideal about."""
    grades = q.grades(top)
    for i, left in enumerate(grades):
        for right in grades[:top + 1 - i]:
            for x in left:
                for y in right:
                    z = q.base._mul(x, y)
                    if z is not ZERO:
                        yield x, z


def assert_seam_agrees(q, top):
    ideal = q.ideal
    for x, z in products(q, top):
        assert ideal.contains_product(x, z) == ideal.contains(z), \
            (q.describe(), x, z)


@pytest.mark.parametrize("k", [2, 3])
def test_contains_product_agrees_with_contains(k):
    for seed in range(3):
        for q in builtin_quotients(k, seed) + quotients_of_quotients(k, seed):
            assert_seam_agrees(q, 6)


def test_generated_seam_covers_generators_of_every_length():
    base = free(3)
    for generators in ([(2,)], [(0, 1)], [(0, 1, 0)], [(1, 2, 0)],
                       [(2,), (0, 1), (1, 0, 1)], [(0, 0), (1, 2, 1)]):
        assert_seam_agrees(
            ReesQuotient(base, GeneratedIdeal(base, generators)), 6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_seam_on_random_generators(data):
    k = data.draw(st.integers(2, 3))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=3).map(tuple)
    generators = data.draw(st.lists(word, min_size=1, max_size=4))
    for base in (free(k), ReesQuotient(free(k), MinLengthIdeal(free(k), 5))):
        assert_seam_agrees(
            ReesQuotient(base, GeneratedIdeal(base, generators)), 5)


def test_extend_lists_one_order_up_from_a_divisor():
    for m in (free(3), commutative(3)):
        seen = []
        for n in range(5):
            for parent in elements_by_filter(m, n):
                for word in m.extend(parent):
                    assert m._order(word) == n + 1
                    assert any(y == parent for y, _ in m.factorizations(word))
                    seen.append(word)
        expected = [w for n in range(1, 6) for w in elements_by_filter(m, n)]
        assert sorted(seen) == sorted(expected)
        assert len(set(seen)) == len(seen)


def test_grades_match_elements_of_order():
    for k in (2, 3):
        for q in builtin_quotients(k, seed=1):
            expected = [q.elements_of_order(n) for n in range(TOP + 1)]
            assert q.grades(TOP) == expected, q.describe()
    for m in (free(2), commutative(3)):
        assert m.grades(4) == [m.elements_of_order(n) for n in range(5)]
    assert free(2).grades(2) == [
        [()], [(0,), (1,)], [(0, 0), (0, 1), (1, 0), (1, 1)]]
    q = ReesQuotient(free(2), MinLengthIdeal(free(2), 2))
    for m in (free(2), commutative(2), q):
        assert m.grades(-1) == []
        assert m.grades(0) == [[m.identity()]]


def test_grade_consumers_see_every_survivor():
    rng = random.Random(5)
    for q in builtin_quotients(3, seed=2):
        survivors = {w for n in range(6) for w in elements_by_filter(q, n)}
        assert set(characteristic_series(q, 5).terms) == survivors
        f = random_series(rng, q, 5)
        g = random_series(rng, q, 5)
        assert convolve_oracle(f, g) == cauchy_product(f, g), q.describe()


def test_count_command_lists_sorted_survivors(capsys):
    spec = {"type": "rees",
            "base": {"type": "free", "alphabet": ["a", "b", "c"]},
            "ideal": {"kind": "generated", "words": [["a", "b"], ["c", "c"]]}}
    assert main(["count", "--monoid", json.dumps(spec), "--terms", "5",
                 "--format", "json"]) == 0
    orders = json.loads(capsys.readouterr().out)["orders"]
    base = free(3)
    q = ReesQuotient(base, GeneratedIdeal(base, [(0, 1), (2, 2)]))
    assert [o["order"] for o in orders] == list(range(6))
    for n, entry in enumerate(orders):
        expected = sorted(elements_by_filter(q, n))
        assert entry["count"] == len(expected)
        assert entry["elements"] == [q.word_letters(w) for w in expected]


def test_quotient_of_a_quotient():
    base = free(3)
    inner = ReesQuotient(base, MinLengthIdeal(base, 6))
    for ideal in (RepeatedLetterIdeal(inner),
                  GeneratedIdeal(inner, [(0, 1), (2, 2)])):
        outer = ReesQuotient(inner, ideal)
        for n, grade in enumerate(outer.grades(TOP)):
            expected = [w for w in itertools.product(range(3), repeat=n)
                        if not inner.ideal.contains(w)
                        and not ideal.contains(w)]
            assert grade == expected


class EnumerableOnly(ZeroMonoid):
    """Free monoid on one letter that lists its grades but cannot
    extend a word."""

    word_kind = "sequence"

    def alphabet(self):
        return alphabet(1)

    def identity(self):
        return ()

    def contains(self, word):
        return isinstance(word, tuple) and all(i == 0 for i in word)

    def _mul(self, x, y):
        return x + y

    def _order(self, word):
        return len(word)

    def grades(self, top):
        return [[(0,) * n] for n in range(top + 1)]


def test_monoid_without_key_equals_only_itself():
    m = EnumerableOnly()
    assert m == m
    assert EnumerableOnly() != EnumerableOnly()
    assert len({m, m, EnumerableOnly()}) == 2


def test_quotient_over_base_without_extend_cannot_enumerate():
    base = EnumerableOnly()
    q = ReesQuotient(base, MinLengthIdeal(base, 3))
    assert base.grades(2) == [[()], [(0,)], [(0, 0)]]
    assert q.grades(0) == [[()]]
    with pytest.raises(InfiniteGradeError):
        q.grades(1)


def test_hilbert_prefix_needs_extend():
    assert hilbert_prefix(EnumerableOnly(), 0).counts == (1,)
    with pytest.raises(InfiniteGradeError):
        hilbert_prefix(EnumerableOnly(), 2)
