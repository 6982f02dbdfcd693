"""Grade enumeration by residue class, checked against the filter over
every word of the root base and against extending every word of the
grade below; the order-free residue contract that both ``grades`` and
``hilbert_prefix`` rely on, one ``extend`` call per residue and walk,
and counts by residue class checked against the filter's counts and
the per-order walk; quotient factorizations checked against the
filtered base factorizations; membership of extensions, tested at the
suffix, checked against full membership; and the seam-key contract that
lets the product kernel decide collapse once per pair of key classes,
over the built-in ideals and over generated ideals with generators of
mixed and random lengths."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from mobzero import (
    GeneratedIdeal,
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
)
from mobzero.cli import main

from helpers import (
    IdempotentMonoid,
    InsertingMonoid,
    alphabet,
    builtin_quotients,
    commutative,
    counts_by_filter,
    counts_by_residue_per_order,
    elements_by_filter,
    factorizations,
    factorizations_by_filter,
    free,
    grades_by_extension,
    quotients_of_quotients,
    random_series,
    residue_monoids,
)

TOP = 7


@pytest.mark.parametrize("k", [1, 2, 3])
def test_equal_residues_have_equal_extension_residues(k):
    """The residue contract ``grades`` and ``hilbert_prefix`` rely on:
    every child is its parent plus one letter, and words of equal
    residue, of any orders, append the same letters, in the same order,
    to children of equal residue.  ``residue_monoids`` holds every
    built-in quotient and every quotient of a quotient."""
    for seed in range(3):
        for m in residue_monoids(k, seed) + [IdempotentMonoid()]:
            first = {}
            for grade in grades_by_extension(m, 6):
                for word in grade:
                    children = m.extend(word)
                    assert all(child[:-1] == word for child in children), \
                        (m.describe(), word)
                    moves = [(child[-1:], m.residue(child))
                             for child in children]
                    assert first.setdefault(m.residue(word), moves) \
                        == moves, (m.describe(), word)


def test_each_walk_extends_one_word_per_residue(monkeypatch):
    """One moves table serves a whole walk: ``hilbert_prefix`` and
    ``grades`` call ``extend`` once per residue, not once per residue
    and order.  gen[abcdabcda] has nine automaton states, gen[ab, cc]
    three."""
    calls = []
    extend = ReesQuotient.extend
    monkeypatch.setattr(ReesQuotient, "extend",
                        lambda q, word: calls.append(word) or extend(q, word))
    base = free(4)
    q = ReesQuotient(base, GeneratedIdeal(base, [(0, 1, 2, 3) * 2 + (0,)]))
    hilbert_prefix(q, 200)
    assert len(calls) == 9
    calls.clear()
    q = ReesQuotient(base, GeneratedIdeal(base, [(0, 1), (2, 2)]))
    q.grades(9)
    assert len(calls) == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grades_match_extension_of_every_word(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            assert m.grades(TOP) == grades_by_extension(m, TOP), m.describe()
    for m in (IdempotentMonoid(), InsertingMonoid()):
        assert m.grades(TOP) == grades_by_extension(m, TOP)


def test_grades_trust_the_residue():
    """A residue that merges words whose extensions differ lists wrong
    grades: the residue classes are all the walk looks at."""
    base = free(3)
    q = ReesQuotient(base, GeneratedIdeal(base, [(0, 1)]))
    expected = [elements_by_filter(q, n) for n in range(5)]
    assert q.grades(4) == expected
    q.ideal.residue = lambda word: 0
    assert q.grades(4) != expected


def assert_seam_keys_hold(m, top):
    """Check the seam-key contract of ``ZeroMonoid._seam_keys`` on every
    pair of elements whose orders sum to at most ``top``: given the two
    orders, the right key of x and the left key of y, x*y is always ZERO
    or never; and never when the monoid declares no keys."""
    keys = m._seam_keys
    right, left = keys or (lambda word: None, lambda word: None)
    grades = [[(x, right(x), left(x)) for x in grade]
              for grade in m.grades(top)]
    first = {}
    for i, xs in enumerate(grades):
        for j, ys in enumerate(grades[:top + 1 - i]):
            for x, x_key, _ in xs:
                for y, _, y_key in ys:
                    collapses = m._mul(x, y) is ZERO
                    assert not (keys is None and collapses), (m.describe(), x, y)
                    assert first.setdefault((i, x_key, j, y_key), collapses) \
                        == collapses, (m.describe(), x, y)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_equal_seam_keys_collapse_alike(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            assert_seam_keys_hold(m, 6)


def test_bases_declare_no_collapse():
    """Over a base, the product loops take a bucket as one class and
    compute no key."""
    for k in (1, 3):
        for base in (free(k), commutative(k)):
            assert base._seam_keys is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hilbert_prefix_matches_walk_counts(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            assert hilbert_prefix(m, 8) == counts_by_filter(m, 8), \
                m.describe()
            assert hilbert_prefix(m, 0) == (1,)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hilbert_prefix_matches_the_per_order_walk(k):
    """The old walk, which learns the moves again at every order, is
    the oracle at orders the filter cannot reach."""
    for seed in range(3):
        for m in residue_monoids(k, seed):
            assert hilbert_prefix(m, 60) == counts_by_residue_per_order(
                m, 60), m.describe()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quotient_factorizations_are_the_filtered_base_ones(k):
    for seed in range(3):
        for q in builtin_quotients(k, seed) + quotients_of_quotients(k, seed):
            for x in itertools.chain.from_iterable(q.grades(6)):
                assert factorizations(q, x) == factorizations_by_filter(q, x), \
                    (q.describe(), x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_grades_are_in_display_order_and_match_filter(k):
    for seed in range(3):
        for m in residue_monoids(k, seed):
            grades = m.grades(TOP)
            for n, grade in enumerate(grades):
                assert grade == sorted(grade), (m.describe(), n)
                assert grade == elements_by_filter(m, n), (m.describe(), n)


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


def test_generated_seam_covers_generators_of_every_length():
    base = free(3)
    for generators in ([(2,)], [(0, 1)], [(0, 1, 0)], [(1, 2, 0)],
                       [(2,), (0, 1), (1, 0, 1)], [(0, 0), (1, 2, 1)]):
        assert_seam_keys_hold(
            ReesQuotient(base, GeneratedIdeal(base, generators)), 6)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_seam_on_random_generators(data):
    k = data.draw(st.integers(2, 3))
    word = st.lists(st.integers(0, k - 1), min_size=1, max_size=3).map(tuple)
    generators = data.draw(st.lists(word, min_size=1, max_size=4))
    for base in (free(k), ReesQuotient(free(k), MinLengthIdeal(free(k), 5))):
        assert_seam_keys_hold(
            ReesQuotient(base, GeneratedIdeal(base, generators)), 5)


def test_extend_lists_one_order_up_from_a_divisor():
    for m in (free(3), commutative(3)):
        seen = []
        for n in range(5):
            for parent in elements_by_filter(m, n):
                for word in m.extend(parent):
                    assert len(word) == n + 1
                    assert any(y == parent for y, _ in factorizations(m, word))
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
        assert m.grades(0) == [[()]]


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
    assert main(["count", "--monoid", json.dumps(spec), "--order", "5",
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

    def contains(self, word):
        return isinstance(word, tuple) and all(i == 0 for i in word)

    def _mul(self, x, y):
        return x + y

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
    assert hilbert_prefix(EnumerableOnly(), 0) == (1,)
    with pytest.raises(InfiniteGradeError):
        hilbert_prefix(EnumerableOnly(), 2)
