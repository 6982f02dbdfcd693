"""Locally finite monoids with zero, realized over finite alphabets.

Every monoid element other than the absorbing zero is encoded as a *word*:
the tuple of its letter indices in display order, a normal form in which
equal elements always have equal encodings, so words can be dict keys and
compared bitwise.  A word of the free monoid is its letter sequence; a
word of the free commutative monoid is its sorted letter multiset.  The
encoding fixes two things for every realization: the identity is the
empty word ``()``, and the order of an element is its number of letters.
Words of equal order compare, as tuples, in display order.  The absorbing
element is never encoded as a word; products that hit it return the
``ZERO`` sentinel instead.

Built-in realizations:

* :class:`FreeMonoid` -- words under concatenation, no reachable zero;
* :class:`FreeCommutativeMonoid` -- sorted letter tuples, multiplied by
  merging;
* :class:`ReesQuotient` -- a base monoid with a proper two-sided ideal
  collapsed to zero.

A monoid without zero is served by the same interface; its ``ZERO`` is
simply never returned by any product, so it also stands for itself with
a zero adjoined: a zero no product reaches changes no contracted algebra.
"""

from __future__ import annotations

import collections
import itertools
import operator
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence

from .errors import InfiniteGradeError, MembershipError, SpecError

Word = tuple  # tuple[int, ...]; letter indices in display order


class Zero:
    """Singleton marker for the absorbing element of a monoid product."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ZERO"


ZERO = Zero()


class _Keyed:
    """Equality by class and ``_key()``, so a subclass's instance never
    equals its parent's, and the hash of the key: a class that inherits
    it defines ``_key`` alone."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())


class Alphabet(_Keyed):
    """Ordered list of distinct letter names; fixes all lexicographic orders."""

    def __init__(self, letters: Iterable[str]):
        self.letters = tuple(letters)
        if not self.letters:
            raise SpecError("alphabet must contain at least one letter")
        for name in self.letters:
            if not isinstance(name, str) or not name:
                raise SpecError(f"letter names must be nonempty strings, got {name!r}")
            # text writes a coefficient before its word: 2 times "1" is "21"
            if name[0] in "0123456789":
                raise SpecError(
                    f"letter names must not begin with a digit, got {name!r}")
            # a term's sign is written before its word: 1 times "-x" and
            # -1 times "x" would both be "-x"
            if name[0] in "+-":
                raise SpecError(
                    f"letter names must not begin with '-' or '+', got {name!r}")
            # "*" joins the letters of a word, "/" writes a fraction and
            # whitespace separates the terms and elements of the text
            if any(c in "*/" or c.isspace() for c in name):
                raise SpecError("letter names must not contain whitespace, "
                                f"'*' or '/', got {name!r}")
        if len(set(self.letters)) != len(self.letters):
            raise SpecError(f"alphabet letters must be distinct: {self.letters}")
        self._index = {name: i for i, name in enumerate(self.letters)}
        self._single_char = all(len(name) == 1 for name in self.letters)

    def spell(self, names: Iterable[str]) -> tuple:
        """Indices of the named letters."""
        try:
            return tuple(map(self._index.__getitem__, names))
        except KeyError as exc:
            raise SpecError(f"unknown letter {exc.args[0]!r}; "
                            f"alphabet is {list(self.letters)}") from None

    def join(self, names: Iterable[str]) -> str:
        # single-char alphabets render words as plain strings; otherwise use
        # an explicit separator so "x1 x2" stays unambiguous
        sep = "" if self._single_char else "*"
        return sep.join(names)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def _key(self):
        return self.letters

    def __repr__(self):
        return f"Alphabet({list(self.letters)})"


class Report(collections.namedtuple("Report", "check violations notes",
                                     defaults=((), ()))):
    """Outcome of a verification run: named check, violations, side notes.

    An immutable named tuple, so reports compare and hash by their
    fields.  Unlike a dataclass, a named tuple imports no source
    introspection (``inspect``, ``ast``, ``dis``, ``tokenize``), which
    every CLI process would pay for at start-up.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def counterexample(self):
        return self.violations[0] if self.violations else None

    def to_json(self) -> dict:
        data = {"check": self.check, "pass": self.passed}
        if self.violations:
            data["counterexample"] = self.violations[0]
        if self.notes:
            data["notes"] = list(self.notes)
        return data

    def __str__(self):
        if self.passed:
            return f"PASS {self.check}"
        return f"FAIL {self.check}: {self.violations[0]}"


def _same_word(word):
    return word


def _paired(outer, inner):
    """A key that is the pair of two keys."""
    return lambda word: (outer(word), inner(word))


class ZeroMonoid(_Keyed, ABC):
    """A monoid with (possibly unreachable) zero, graded by its order function.

    The identity is the empty word and the order of a word is its length,
    for every realization.  The grading contract: a nonzero product has
    ord(xy) = ord(x) + ord(y).  The series kernels place each product in
    the grade of its factors' order sum and never ask its order; the star
    solver raises :class:`AlgebraError` on a word found in another grade.
    Subclasses provide the alphabet, membership and the raw product on
    canonical words.

    ``_seam_keys`` is a pair of functions: a *right key* of a left factor
    and a *left key* of a right factor.  The contract: if x, x' are
    nonzero, of equal order, with equal right keys, and y, y' are
    nonzero, of equal order, with equal left keys, then x*y and x'*y'
    are both ``ZERO`` or both nonzero.  The series product kernel
    (``series._add_products``, shared by ``cauchy_product`` and the star
    solver) therefore decides collapse once per pair of key classes, on
    one representative pair, and forms the surviving products with
    ``_root_mul``.  ``None`` declares that no product of nonzero
    elements is ``ZERO``: the loops then take a bucket of terms as one
    class and compute no key.  The default keys are the words
    themselves, which is exact and merges nothing.
    """

    # "sequence" words concatenate, "multiset" words merge, and None is
    # neither; ideals use this to check they apply to a compatible base
    word_kind = None

    @abstractmethod
    def alphabet(self) -> Alphabet:
        ...

    @abstractmethod
    def contains(self, word: Word) -> bool:
        ...

    @abstractmethod
    def _mul(self, x: Word, y: Word) -> Zero | Word:
        """Product of two member words, without membership checks."""

    # the order; the library calls ``len``, and this hook stays only for
    # bench/spans.py, its last reader, until ROADMAP item 1 rewrites it
    _order = staticmethod(len)

    # what ``describe`` calls the monoid; None names it by its class
    name = None

    def describe(self) -> str:
        letters = ", ".join(self.alphabet())
        return f"{self.name or type(self).__name__} on {{{letters}}}"

    def extend(self, word: Word) -> list:
        """The elements one order above ``word`` that are reached from it,
        listed in display order: as tuples, in increasing order.

        Every element of order n + 1 is reached from exactly one element
        of order n, and that element divides it.  Each is ``word`` with
        exactly one letter appended, and which letters are appended
        depends only on the :meth:`residue` of ``word``, at any order:
        :meth:`grades` and ``hilbert_prefix`` rely on that.
        """
        raise InfiniteGradeError(
            f"{self.describe()} cannot extend its elements")

    def _mobius_terms(self, top: int):
        """The Mobius series up to order ``top`` in closed form, a dict of
        word to 1 or -1; None makes ``mobius_series`` solve over the grades.
        The free commutative base's, the product of (1 - a) over its
        letters, waits for the benchmark's traced loop to stop on wall time
        (ROADMAP item 1).
        """
        return None

    # (right key, left key), or None when no product collapses; see the
    # class docstring
    _seam_keys = (_same_word, _same_word)

    def _root_mul(self, x: Word, y: Word) -> Word:
        """The product of two member words whose product is known to be
        nonzero, as the root base computes it: a realization over no other
        base multiplies by ``_mul`` itself."""
        return self._mul(x, y)

    def residue(self, word: Word):
        """What of ``word`` its extensions depend on.

        Two elements of equal residue, of any orders, must append the
        same letters in :meth:`extend`, and each letter must lead both to
        children of equal residue.  So one representative per residue
        stands for all the others, at every order: a walk of
        :meth:`grades` or ``hilbert_prefix`` extends it once.  The word
        itself always qualifies and merges nothing.
        """
        return word

    def grades(self, top: int) -> list:
        """The nonzero elements of each order 0..top, one list per order
        in display order; ``[]`` when ``top`` is negative.

        Each grade is the extensions of the grade below, listed by
        residue class (see :meth:`residue`): a grade is held as its
        words and, in a parallel list, their residues.  Every word is
        extended by its residue's *moves*, the appended letter and the
        residue of each child, from one table for the whole walk, with
        no ``extend`` or ``residue`` call per word.  Each word's
        children follow in increasing letter order, so the grade comes
        out in display order without a sort.
        """
        if top < 0:
            return []
        moves = _ResidueMoves(self)
        words, keys = [()], [moves.start]
        out = [words]
        for _ in range(top):
            above, above_keys = [], []
            for word, key in zip(words, keys):
                tails, tail_keys = moves[key]
                above += map(word.__add__, tails)
                above_keys += tail_keys
            words, keys = above, above_keys
            out.append(words)
        return out

    def elements_of_order(self, n: int) -> list:
        """All nonzero elements of order n, sorted by display order."""
        if n < 0:
            raise ValueError(f"order must be nonnegative, got {n}")
        return self.grades(n)[n]

    def _splits(self, x: Word) -> list:
        raise InfiniteGradeError(
            f"{self.describe()} cannot enumerate factorizations")

    def word_letters(self, word: Word) -> list:
        """Word as a list of letter names, in display order."""
        return list(map(self.alphabet().letters.__getitem__, word))

    def word_from_letters(self, names: Sequence[str]) -> Word:
        """The element spelled by letter names, built in one step.

        Raises :class:`SpecError` on a name outside the alphabet and
        :class:`MembershipError`, naming the letters as given, when the
        spelled word is not an element.
        """
        word = self._element(self.alphabet().spell(names))
        if word is None:
            raise MembershipError(
                f"{names!r} is not an element of {self.describe()}")
        return word

    def _element(self, indices):
        """The element whose letters have the given alphabet indices, any
        iterable of them, or None when they spell no element.  By default
        the index tuple itself, kept when :meth:`contains` accepts it."""
        word = tuple(indices)
        return word if self.contains(word) else None

    def render_word(self, word: Word) -> str:
        if not word:
            return "1"
        return self.alphabet().join(self.word_letters(word))

    def _key(self):
        """What two equal realizations share (see :class:`_Keyed`); by
        default the instance itself, which equals only itself."""
        return id(self)


class _ResidueMoves(dict):
    """Residue -> (the appended letters, as one-letter words, and the
    residues of the children), the moves of one walk over residue
    classes.  A missing residue is learned by extending the first word
    met of it, so ``extend`` runs once per residue and walk; residues
    are order-free (see :meth:`ZeroMonoid.residue`)."""

    def __init__(self, m: ZeroMonoid):
        self._extend, self._residue = m.extend, m.residue
        self.start = m.residue(())
        self._words = {self.start: ()}

    def __missing__(self, key):
        # one Python loop: a C map over ``residue`` costs more per call
        tails, keys = move = self[key] = [], []
        for child in self._extend(self._words[key]):
            keys.append(self._residue(child))
            self._words.setdefault(keys[-1], child)
            tails.append(child[-1:])
        return move


class _FreeBase(ZeroMonoid):
    """What the free bases share: an alphabet, membership of the words
    over it, no product that collapses, and equality by alphabet.  Each
    free base adds its product and enumeration kernels."""

    def __init__(self, alphabet: Alphabet):
        if not isinstance(alphabet, Alphabet):
            raise SpecError(f"expected an Alphabet, got {alphabet!r}")
        self._alphabet = alphabet
        self._size = len(alphabet)
        # the one-letter words, which ``extend`` appends
        self._letters = [(i,) for i in range(self._size)]

    def alphabet(self) -> Alphabet:
        return self._alphabet

    def contains(self, word) -> bool:
        """A tuple of letter indices that is its own normal form."""
        return (isinstance(word, tuple)
                and all(isinstance(i, int) and 0 <= i < self._size for i in word)
                and self._element(word) == word)

    _seam_keys = None   # no product collapses

    def __repr__(self):
        return f"{type(self).__name__}({list(self._alphabet)})"

    def _key(self):
        return self._alphabet


class FreeMonoid(_FreeBase):
    """Words over a finite alphabet under concatenation.

    Has no reachable zero; exposing it through the zero-monoid interface
    lets series over an ordinary free monoid share all the machinery.
    """

    word_kind = "sequence"
    name = "free monoid"

    # C builtins: no Python frame in the product loops or the series reader
    _mul = _root_mul = staticmethod(operator.add)
    _element = staticmethod(tuple)

    def grades(self, top):
        # itertools.product builds a grade in C, some 4x faster than extend
        return [list(itertools.product(range(self._size), repeat=n))
                for n in range(top + 1)]

    def extend(self, word):
        return list(map(word.__add__, self._letters))

    def residue(self, word):
        return ()

    def _mobius_terms(self, top):
        # 1 - a - b - ...: (1 - a - b - ...) * zeta counts a nonempty
        # word as itself and, negated, as its first letter times the rest
        terms = {(): 1}
        if top >= 1:
            terms.update(dict.fromkeys(self._letters, -1))
        return terms

    def _splits(self, x):
        return [(x[:i], x[i:]) for i in range(len(x) + 1)]


class FreeCommutativeMonoid(_FreeBase):
    """Letter multisets over a finite alphabet, each the sorted tuple of
    its letter indices, multiplied by merging."""

    word_kind = "multiset"
    name = "free commutative monoid"

    def _mul(self, x, y):
        return tuple(sorted(x + y))

    _root_mul = _mul

    def grades(self, top):
        # combinations_with_replacement lists the sorted tuples of a grade
        # in increasing order, in C, as FreeMonoid.grades uses product
        return [list(itertools.combinations_with_replacement(
                    range(self._size), n)) for n in range(top + 1)]

    def extend(self, word):
        # append a letter no smaller than the last: the word stays sorted
        return list(map(word.__add__, self._letters[self.residue(word):]))

    def residue(self, word):
        """The last letter; 0 for the identity."""
        return word[-1] if word else 0

    def _splits(self, x):
        # each run of equal letters splits into a prefix for the left
        # factor and the rest for the right one, independently of the others
        pairs = [((), ())]
        for _, run in itertools.groupby(x):
            run = tuple(run)
            cuts = [(run[:k], run[k:]) for k in range(len(run) + 1)]
            pairs = [(y + p, z + q) for y, z in pairs for p, q in cuts]
        return pairs

    @staticmethod
    def _element(indices):
        return tuple(sorted(indices))


class ReesQuotient(ZeroMonoid):
    """Quotient of a base monoid by a proper two-sided ideal collapsed to zero.

    Elements are the base words outside the ideal; a product falls to
    ``ZERO`` exactly when the base product lands in the ideal.

    The elements are closed under taking divisors, because the ideal is
    two-sided.  So every element is an extension of an element one order
    below, and :meth:`extend` keeps the base's extensions outside the
    ideal: a grade is built from the grade below, never from the whole
    base grade.  The residue is the pair of the base's and the ideal's,
    so two words of equal residue, of any orders, keep the same
    appended letters, to children of equal residue, and the inherited
    :meth:`grades` extends one word per residue.  As the elements
    are closed under divisors, the factorizations of an element are its
    base factorizations.  The identity and the order are the base's, as
    they are those of every realization.

    A product collapses when the base's does or when the ideal holds the
    base product, so each seam key is the ideal's residue on that side
    (:meth:`IdealSpec.residue`, :meth:`IdealSpec.left_residue`) paired
    with the base's key; over a base whose products never collapse it is
    the ideal's residue alone.
    """

    def __init__(self, base: ZeroMonoid, ideal):
        if ideal.base != base:
            raise SpecError(
                f"ideal is declared over {ideal.base.describe()}, "
                f"not over {base.describe()}")
        if ideal.contains(()):
            raise SpecError(
                f"{ideal.describe()} is not proper: it contains the identity")
        self.base = base
        self.ideal = ideal
        self.word_kind = base.word_kind
        # only the base's product is bound, so that the product loops form
        # a surviving product with its kernel, a C builtin over a free base
        self._root_mul = base._root_mul
        keys = ideal.residue, ideal.left_residue
        if base._seam_keys is not None:
            keys = tuple(map(_paired, base._seam_keys, keys))
        self._seam_keys = keys

    def alphabet(self):
        return self.base.alphabet()

    def contains(self, word):
        return self.base.contains(word) and not self.ideal.contains(word)

    def _mul(self, x, y):
        z = self.base._mul(x, y)
        if z is ZERO or self.ideal.contains(z):
            return ZERO
        return z

    def extend(self, word):
        inside = self.ideal.contains
        return [w for w in self.base.extend(word) if not inside(w)]

    def _element(self, indices):
        word = self.base._element(indices)
        return None if word is None or self.ideal.contains(word) else word

    def _mobius_terms(self, top):
        # phi is a ring morphism carrying the base's zeta onto this one's,
        # so it carries the base's Mobius series onto this one's
        terms = self.base._mobius_terms(top)
        if terms is None:
            return None
        inside = self.ideal.contains
        return {w: c for w, c in terms.items() if not inside(w)}

    def residue(self, word):
        return self.base.residue(word), self.ideal.residue(word)

    def _splits(self, x):
        return self.base._splits(x)

    def describe(self):
        return (f"Rees quotient of {self.base.describe()} "
                f"by {self.ideal.describe()}")

    def __repr__(self):
        return f"ReesQuotient({self.base!r}, {self.ideal!r})"

    def _key(self):
        return self.base, self.ideal
