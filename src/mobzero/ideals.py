"""Two-sided ideal membership predicates over a base monoid.

An ideal here is a decidable predicate on the words of a base monoid,
closed under multiplication by arbitrary words on either side.  The
predicates are the data from which quotients with an absorbing zero are
built; nothing in this module touches series.

Three kinds are built in: the repeated-letter ideal, the generated
ideals, and one order ideal, the words of order at least n
(:class:`MinLengthIdeal`).  The order ideal is named for its base's
words, min-length over letter sequences and degree-at-least over letter
multisets.  The wire's ev-preimage of degree-at-least(d), the words
whose letter counts have degree at least d, is the same ideal,
min-length(d).

Closure is a promise of the predicate, not something the constructors can
see; the test suite probes it for every built-in kind over a finite range
of orders.  Properness is checked when a quotient is built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable
from functools import reduce
from operator import getitem, itemgetter

from .errors import SpecError
from .monoid import Word, ZeroMonoid


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
        the base's residue; see :meth:`ZeroMonoid.residue`.  Two words
        outside the ideal of equal residue, of any orders, must keep the
        same appended letters outside it, and each letter must lead both
        to children of equal residue.  The word itself always qualifies
        and merges nothing.

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


# the order ideal's kind over each word kind, and the name of its bound;
# a base that declares no word kind reads it as min-length
_ORDER_KINDS = {"sequence": ("min-length", "min-length bound"),
                "multiset": ("degree-at-least", "degree bound")}
_ORDER_KINDS[None] = _ORDER_KINDS["sequence"]


def _require_integer_bound(n, word_kind: str):
    if not isinstance(n, int) or isinstance(n, bool):
        raise SpecError(
            f"{_ORDER_KINDS[word_kind][1]} must be an integer, got {n!r}")


class MinLengthIdeal(IdealSpec):
    """Words of order at least a fixed bound n.  The order of a product
    is the sum of its factors' orders, so this is an ideal of every base.
    Its kind is named for the base's words: min-length over letter
    sequences, degree-at-least over letter multisets.  Its residue is
    the order, which alone fixes membership of the extensions at any
    order; its left residue is ``()``, as seam keys are compared within
    one order."""

    def __init__(self, base: ZeroMonoid, n: int):
        _require_integer_bound(n, base.word_kind)
        self.kind, bound_name = _ORDER_KINDS[base.word_kind]
        if n < 1:
            raise SpecError(f"{bound_name} must be at least 1, got {n}")
        super().__init__(base)
        self.n = n

    def contains(self, word: Word) -> bool:
        return len(word) >= self.n

    residue = staticmethod(len)

    def left_residue(self, word: Word):
        return ()

    def describe(self) -> str:
        return f"{self.kind}({self.n}) ideal"

    def _key(self):
        return (self.base, self.n)


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
        self._root, self._dead = _factor_automaton(
            self.generators, len(base.alphabet()))
        # a generator that ends at an appended letter starts at most m
        # letters before it.  The residue is the automaton state after the
        # word, a suffix of at most m letters that its last m letters
        # reach from the root; the left residue is the first m letters
        m = len(self.generators[-1]) - 1
        tail = itemgetter(slice(-m, None) if m else slice(0))
        self.residue = lambda word: id(reduce(getitem, tail(word), self._root))
        self.left_residue = itemgetter(slice(m))

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
