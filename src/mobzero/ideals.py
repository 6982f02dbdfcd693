"""Two-sided ideal membership predicates over a base monoid.

An ideal here is a decidable predicate on the words of a base monoid,
closed under multiplication by arbitrary words on either side.  The
predicates are the data from which quotients with an absorbing zero are
built; nothing in this module touches series.

Closure is a promise of the predicate, not something the constructors can
see, so :func:`validate_ideal` exists to probe it (and properness) over a
finite range of orders and produce a report.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from .errors import SpecError
from .monoid import FreeCommutativeMonoid, Report, Word, ZERO, ZeroMonoid


class IdealSpec(ABC):
    """Membership predicate for a two-sided ideal of ``base``.

    ``contains`` assumes its argument is a valid word of the base monoid;
    it sits inside the quotient's multiplication loop and does not
    re-validate.
    """

    kind: str

    def __init__(self, base: ZeroMonoid):
        self.base = base

    @abstractmethod
    def contains(self, word: Word) -> bool:
        raise NotImplementedError

    def contains_extension(self, word: Word) -> bool:
        """``contains(word)`` for a word in ``base.extend(parent)``, where
        ``parent`` is already known to lie outside the ideal.

        Every factor of the word that is also a factor of the parent is
        outside the ideal, so an override need only check the factors
        that the last step created.  For sequence words the parent is
        ``word[:-1]``.
        """
        return self.contains(word)

    def contains_product(self, x: Word, z: Word) -> bool:
        """``contains(z)`` for a base product z = xy, where x and y are
        both known to lie outside the ideal.

        Every factor of z that lies within x or within y is outside the
        ideal, so an override need only check the factors that cross the
        seam between them.  :meth:`contains_extension` is the case of a
        y of order 1; it stays apart because its single new factor is a
        suffix, which is cheaper to test than a seam.
        """
        return self.contains(z)

    def residue(self, word: Word):
        """What of ``word`` membership of its extensions depends on, given
        their order and the base's residue; see :meth:`ZeroMonoid.residue`.
        The word itself always qualifies and merges nothing."""
        return word

    def describe(self) -> str:
        return f"{self.kind} ideal"

    def _key(self):
        return (self.kind, self.base)

    def __eq__(self, other):
        return isinstance(other, IdealSpec) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<{type(self).__name__} over {self.base.describe()}>"


_WORD_KINDS = {"sequence": "letter sequences", "multiset": "letter multisets"}


def _require_word_kind(base: ZeroMonoid, kind: str, word_kind="sequence"):
    if base.word_kind != word_kind:
        raise SpecError(
            f"{kind} ideal needs a monoid whose words are "
            f"{_WORD_KINDS[word_kind]}, got {base.describe()}")


class RepeatedLetterIdeal(IdealSpec):
    """Words in which some letter occurs at least twice."""

    kind = "repeated-letter"

    def __init__(self, base: ZeroMonoid):
        _require_word_kind(base, self.kind)
        super().__init__(base)

    def contains(self, word: Word) -> bool:
        return len(set(word)) < len(word)

    def contains_extension(self, word: Word) -> bool:
        return word[-1] in word[:-1]

    def contains_product(self, x: Word, z: Word) -> bool:
        # neither factor repeats a letter, so only a shared one can
        return not set(x).isdisjoint(z[len(x):])

    def residue(self, word: Word):
        return frozenset(word)


class MinLengthIdeal(IdealSpec):
    """Words of length at least a fixed bound n."""

    kind = "min-length"
    word_kind = "sequence"
    bound_name = "min-length bound"

    def __init__(self, base: ZeroMonoid, n: int):
        _require_word_kind(base, self.kind, self.word_kind)
        if n < 1:
            raise SpecError(f"{self.bound_name} must be at least 1, got {n}")
        super().__init__(base)
        self.n = n

    def contains(self, word: Word) -> bool:
        return len(word) >= self.n

    # the length test is as cheap as any incremental one
    contains_extension = contains

    def residue(self, word: Word):
        return ()

    def describe(self) -> str:
        return f"{self.kind}({self.n}) ideal"

    def _key(self):
        return (self.kind, self.base, self.n)


class GeneratedIdeal(IdealSpec):
    """Words containing some generator as a contiguous factor."""

    kind = "generated"

    def __init__(self, base: ZeroMonoid, words: Iterable[Word]):
        _require_word_kind(base, self.kind)
        super().__init__(base)
        generators = []
        for w in words:
            w = tuple(w)
            if not base.contains(w):
                raise SpecError(f"generator {w!r} is not a word of "
                                f"{base.describe()}")
            generators.append(w)
        if not generators:
            raise SpecError("generated ideal needs at least one generator")
        # dedupe; keep a canonical order so equal generator sets compare equal
        self.generators = tuple(sorted(set(generators), key=lambda w: (len(w), w)))
        # a generator that ends at an appended letter starts at most this
        # many letters before it
        self._memory = len(self.generators[-1]) - 1

    def contains(self, word: Word) -> bool:
        for g in self.generators:
            k = len(g)
            if k == 0:
                return True
            if any(word[i:i + k] == g for i in range(len(word) - k + 1)):
                return True
        return False

    def contains_extension(self, word: Word) -> bool:
        # a factor not ending at the last letter is a factor of the parent
        n = len(word)
        for g in self.generators:
            if word[n - len(g):] == g:
                return True
        return False

    def contains_product(self, x: Word, z: Word) -> bool:
        # a window crossing the seam ends 1 to _memory letters after it.
        # One that starts in y is a factor of y and never matches; a start
        # below 0 wraps around and slices fewer than len(g) letters.
        n = len(x)
        for end in range(n + 1, min(n + self._memory, len(z)) + 1):
            for g in self.generators:
                if z[end - len(g):end] == g:
                    return True
        return False

    def residue(self, word: Word):
        return word[-self._memory:] if self._memory else ()

    def describe(self) -> str:
        shown = ", ".join(self.base.render_word(g) for g in self.generators)
        return f"generated({shown}) ideal"

    def _key(self):
        return (self.kind, self.base, self.generators)


class DegreeAtLeastIdeal(MinLengthIdeal):
    """Commutative words of total degree at least a fixed bound n: the
    length test, since a sorted letter tuple is as long as its degree."""

    kind = "degree-at-least"
    word_kind = "multiset"
    bound_name = "degree bound"


class EvPreimageIdeal(IdealSpec):
    """Pullback of a commutative-side ideal along letter-count abelianization.

    A word belongs exactly when its letter multiset, the word of the
    inner base with the same letters, lies in the inner ideal.  Closure
    is inherited: the count map is multiplicative.
    """

    kind = "ev-preimage"

    def __init__(self, base: ZeroMonoid, inner: IdealSpec):
        _require_word_kind(base, self.kind)
        if not isinstance(inner.base, FreeCommutativeMonoid):
            raise SpecError(
                "ev-preimage needs an inner ideal over a free commutative "
                f"monoid, got one over {inner.base.describe()}")
        if inner.base.alphabet() != base.alphabet():
            raise SpecError(
                "ev-preimage inner ideal must share the base alphabet: "
                f"{base.alphabet()!r} vs {inner.base.alphabet()!r}")
        super().__init__(base)
        self.inner = inner
        self._image = inner.base._from_indices

    def contains(self, word: Word) -> bool:
        return self.inner.contains(self._image(word))

    def residue(self, word: Word):
        return self._image(word)

    def describe(self) -> str:
        return f"ev-preimage({self.inner.describe()})"

    def _key(self):
        return (self.kind, self.base, self.inner)


def validate_ideal(spec: IdealSpec, max_order: int) -> Report:
    """Probe a predicate for ideal-hood over a finite range of orders.

    Checks that the identity is excluded (properness) and that membership
    absorbs multiplication on both sides for every pair of words whose
    orders sum to at most max_order.  A clean report is evidence, not
    proof; the bound says how far the search went.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")
    base = spec.base
    violations = []
    if spec.contains(base.identity()):
        violations.append("identity belongs to the ideal (not proper)")
    grades = base.grades(max_order)
    members = [[w for w in grade if spec.contains(w)] for grade in grades]
    for i in range(max_order + 1):
        for u in members[i]:
            for j in range(max_order + 1 - i):
                for v in grades[j]:
                    left = base._mul(v, u)
                    if left is not ZERO and not spec.contains(left):
                        violations.append(
                            f"not left-absorbing: "
                            f"{base.render_word(v)}*{base.render_word(u)} "
                            f"escapes the ideal")
                    right = base._mul(u, v)
                    if right is not ZERO and not spec.contains(right):
                        violations.append(
                            f"not right-absorbing: "
                            f"{base.render_word(u)}*{base.render_word(v)} "
                            f"escapes the ideal")
                    if len(violations) >= 5:
                        return Report(f"ideal({spec.describe()})",
                                      tuple(violations))
    notes = (f"checked all products with order sum at most {max_order}",)
    return Report(f"ideal({spec.describe()})", tuple(violations), notes)
