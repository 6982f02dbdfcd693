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
from functools import reduce
from operator import getitem, itemgetter
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

    def residue(self, word: Word):
        """What of ``word`` membership of its extensions depends on, given
        their order and the base's residue; see :meth:`ZeroMonoid.residue`.
        The word itself always qualifies and merges nothing.

        It is also the right key of a quotient product (see
        ``ZeroMonoid._seam_keys``): let x, x' lie outside the ideal, with
        equal order and equal residue, and y, y' lie outside it, with
        equal order and equal :meth:`left_residue`.  If the base products
        xy and x'y' are both nonzero, the ideal holds both or neither."""
        return word

    def left_residue(self, word: Word):
        """The mirror of :meth:`residue` for a right factor: what of
        ``word`` membership of a product ending in it depends on.  The
        word itself always qualifies and merges nothing."""
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

    # the letter set, on either side
    residue = left_residue = staticmethod(frozenset)


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

    left_residue = residue

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
        # a generator that ends at an appended letter starts at most m
        # letters before it; the residues are the last and the first m
        # letters, sliced in C
        m = len(self.generators[-1]) - 1
        self.residue = itemgetter(slice(-m, None) if m else slice(0))
        self.left_residue = itemgetter(slice(m))
        self._root, self._dead = _factor_automaton(
            self.generators, len(base.alphabet()))

    def contains(self, word: Word) -> bool:
        # one C pass over the word through the factor automaton
        return reduce(getitem, word, self._root) is self._dead

    def contains_extension(self, word: Word) -> bool:
        # a factor not ending at the last letter is a factor of the parent
        n = len(word)
        for g in self.generators:
            if word[n - len(g):] == g:
                return True
        return False

    def describe(self) -> str:
        shown = ", ".join(self.base.render_word(g) for g in self.generators)
        return f"generated({shown}) ideal"

    def _key(self):
        return (self.kind, self.base, self.generators)


def _factor_automaton(generators, size: int):
    """The root and dead state of an automaton over letters 0..size-1
    that reads a word and ends in the dead state exactly when some
    generator is a factor of it (Aho and Corasick, CACM 18(6), 1975).

    A live state is the longest suffix of the letters read that is a
    proper prefix of a generator, held as a list indexed by letter; the
    dead state absorbs every letter.  The states are filled breadth
    first, each with its fallback, the state its longest proper suffix
    reaches: a letter leads where it leads from the fallback, unless it
    extends the state to a longer prefix or to a generator.  An empty
    generator makes the root dead.
    """
    dead = []
    dead.extend([dead] * size)
    ends = set(generators)
    if () in ends:
        return dead, dead
    root = [None] * size
    rows = {g[:i]: [None] * size for g in generators for i in range(1, len(g))}
    rows[()] = root
    queue = [((), None)]
    for prefix, fallback in queue:
        row = rows[prefix]
        for letter in range(size):
            word = prefix + (letter,)
            shorter = root if fallback is None else fallback[letter]
            if word in ends or shorter is dead:
                row[letter] = dead
            elif word in rows:
                row[letter] = rows[word]
                queue.append((word, shorter))
            else:
                row[letter] = shorter
    return root, dead


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

    left_residue = residue

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
