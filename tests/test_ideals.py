import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mobzero import (
    DegreeAtLeastIdeal,
    EvPreimageIdeal,
    GeneratedIdeal,
    IdealSpec,
    MinLengthIdeal,
    ReesQuotient,
    RepeatedLetterIdeal,
    SpecError,
)

from helpers import (
    builtin_free_ideals, commutative, commutative_image, contains_by_windows,
    free, validate_ideal, vector_word)


def w(m, text):
    return m.word_from_letters(list(text))


def test_repeated_letter_membership():
    base = free(3)
    ideal = RepeatedLetterIdeal(base)
    assert ideal.contains(w(base, "aba"))
    assert not ideal.contains(w(base, "abc"))
    assert not ideal.contains(())
    assert ideal.contains(w(base, "cc"))


def test_repeated_letter_needs_sequence_base():
    with pytest.raises(SpecError):
        RepeatedLetterIdeal(commutative(2))


def test_min_length_membership():
    base = free(2)
    ideal = MinLengthIdeal(base, 3)
    assert not ideal.contains(w(base, "ab"))
    assert ideal.contains(w(base, "aba"))
    assert ideal.contains(w(base, "abab"))
    assert "min-length(3)" in ideal.describe()


def test_min_length_bound_validated():
    with pytest.raises(SpecError):
        MinLengthIdeal(free(2), 0)
    with pytest.raises(SpecError):
        MinLengthIdeal(commutative(2), 2)


@pytest.mark.parametrize("cls, base, bound", [
    (MinLengthIdeal, free(2), 2.5),
    (MinLengthIdeal, free(2), True),
    (MinLengthIdeal, free(2), "3"),
    (DegreeAtLeastIdeal, commutative(2), 1.5),
    (DegreeAtLeastIdeal, commutative(2), "3"),
], ids=["float", "bool", "str", "degree-float", "degree-str"])
def test_length_bound_must_be_an_integer(cls, base, bound):
    with pytest.raises(SpecError, match="must be an integer"):
        cls(base, bound)


def test_generated_factor_containment():
    base = free(3)
    ideal = GeneratedIdeal(base, [w(base, "c")])
    assert ideal.contains(w(base, "c"))
    assert ideal.contains(w(base, "abcab"))
    assert not ideal.contains(w(base, "abab"))

    two = GeneratedIdeal(base, [w(base, "ab"), w(base, "ca")])
    assert two.contains(w(base, "bab"))   # ab inside
    assert two.contains(w(base, "bca"))   # ca inside
    assert not two.contains(w(base, "aacc"))


def assert_automaton_matches_windows(ideal, top):
    k = len(ideal.base.alphabet())
    for n in range(top + 1):
        for word in itertools.product(range(k), repeat=n):
            assert ideal.contains(word) == contains_by_windows(ideal, word), \
                (ideal.generators, word)


def test_generated_automaton_on_overlapping_generators():
    # a generator inside a longer one's prefix, generators that overlap
    # themselves and each other, and an ideal over a quotient base
    base = free(3)
    for generators in ([(1,), (0, 1, 2)], [(0, 0, 1), (0, 1, 0)],
                       [(0, 1, 0, 1), (1, 0, 0)], [(2, 2, 2), (1, 2)],
                       [(0,), (1,), (2,)]):
        assert_automaton_matches_windows(GeneratedIdeal(base, generators), 7)
    inner = ReesQuotient(base, MinLengthIdeal(base, 9))
    assert_automaton_matches_windows(
        GeneratedIdeal(inner, [(0, 2), (2, 1, 0)]), 7)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_automaton_on_random_generators(data):
    k = data.draw(st.integers(1, 3))
    word = st.lists(st.integers(0, k - 1), max_size=4).map(tuple)
    generators = data.draw(st.lists(word, min_size=1, max_size=5))
    assert_automaton_matches_windows(GeneratedIdeal(free(k), generators), 6)


def test_generated_normalizes_generators():
    base = free(2)
    one = GeneratedIdeal(base, [w(base, "ab"), w(base, "a")])
    other = GeneratedIdeal(base, [w(base, "a"), w(base, "ab"), w(base, "a")])
    assert one == other
    assert one.generators == ((0,), (0, 1))


def test_generated_rejects_foreign_generator():
    base = free(2)
    with pytest.raises(SpecError):
        GeneratedIdeal(base, [(0, 7)])
    with pytest.raises(SpecError):
        GeneratedIdeal(base, [])


def test_generated_empty_word_caught_by_validation():
    # the constructor accepts the identity as a generator; properness is
    # a validation/report concern, and quotient construction rejects it
    base = free(2)
    ideal = GeneratedIdeal(base, [()])
    assert ideal.contains(())
    report = validate_ideal(ideal, 3)
    assert not report.passed
    assert "not proper" in report.counterexample


def test_degree_at_least_membership():
    base = commutative(2)
    ideal = DegreeAtLeastIdeal(base, 2)
    assert ideal.contains(w(base, "aa"))
    assert ideal.contains(w(base, "ba"))
    assert not ideal.contains(w(base, "b"))
    assert not ideal.contains(())


def test_degree_at_least_validation():
    with pytest.raises(SpecError):
        DegreeAtLeastIdeal(free(2), 2)
    with pytest.raises(SpecError):
        DegreeAtLeastIdeal(commutative(2), 0)


def test_ev_preimage_membership():
    base = free(3)
    inner = DegreeAtLeastIdeal(commutative(3), 2)
    ideal = EvPreimageIdeal(base, inner)
    assert ideal.contains(w(base, "ab"))
    assert ideal.contains(w(base, "aa"))
    assert not ideal.contains(w(base, "a"))
    assert not ideal.contains(())


def test_ev_preimage_consistency_exhaustive():
    base = free(2)
    inner = DegreeAtLeastIdeal(commutative(2), 3)
    ideal = EvPreimageIdeal(base, inner)
    for n in range(7):
        for word in base.elements_of_order(n):
            assert ideal.contains(word) == inner.contains(
                vector_word(commutative_image(word, 2)))


def test_ev_preimage_base_compatibility():
    with pytest.raises(SpecError):
        EvPreimageIdeal(free(2), DegreeAtLeastIdeal(commutative(3), 2))
    with pytest.raises(SpecError):
        # inner must be commutative-based
        EvPreimageIdeal(free(2), MinLengthIdeal(free(2), 2))
    with pytest.raises(SpecError):
        EvPreimageIdeal(commutative(2),
                        DegreeAtLeastIdeal(commutative(2), 2))


def test_ideal_equality_and_hash():
    base = free(2)
    assert RepeatedLetterIdeal(base) == RepeatedLetterIdeal(free(2))
    assert MinLengthIdeal(base, 2) != MinLengthIdeal(base, 3)
    assert len({RepeatedLetterIdeal(base), RepeatedLetterIdeal(base)}) == 1
    assert RepeatedLetterIdeal(base) != MinLengthIdeal(base, 2)


def test_validate_ideal_passes_builtins():
    for base_size in (1, 2, 3):
        base = free(base_size)
        for ideal in builtin_free_ideals(base):
            report = validate_ideal(ideal, 5)
            assert report.passed, (ideal.describe(), report.counterexample)
    comm = commutative(3)
    assert validate_ideal(DegreeAtLeastIdeal(comm, 2), 5).passed


def test_validate_ideal_absorption_deeper():
    # two-sided absorption with order sums up to 8 on a small alphabet
    base = free(2)
    for ideal in builtin_free_ideals(base):
        report = validate_ideal(ideal, 8)
        assert report.passed, (ideal.describe(), report.counterexample)


def test_validate_ideal_bound_checked():
    with pytest.raises(ValueError):
        validate_ideal(RepeatedLetterIdeal(free(2)), 0)


class ExactLengthTwo(IdealSpec):
    """Deliberately not an ideal: membership is length == 2."""

    kind = "exact-length-2"

    def contains(self, word):
        return len(word) == 2


def test_validate_ideal_catches_non_ideal():
    report = validate_ideal(ExactLengthTwo(free(2)), 4)
    assert not report.passed
    assert "absorbing" in report.counterexample


def test_contains_is_cheap_on_long_words():
    # membership must stay polynomial in the word length
    base = free(2)
    long_word = (0, 1) * 500
    assert MinLengthIdeal(base, 3).contains(long_word)
    assert RepeatedLetterIdeal(base).contains(long_word)
    assert GeneratedIdeal(base, [w(base, "ba")]).contains(long_word)
    inner = DegreeAtLeastIdeal(commutative(2), 10)
    assert EvPreimageIdeal(base, inner).contains(long_word)
