"""Exception hierarchy shared by all mobzero modules."""


class AlgebraError(Exception):
    """Base class for every error raised by this library."""


class MembershipError(AlgebraError):
    """A word is not an element of the monoid it was used with."""


class SpecError(AlgebraError):
    """A declarative spec (monoid, ideal, series input) is malformed or
    incompatible with the structure it is applied to."""


class InfiniteGradeError(AlgebraError):
    """The monoid cannot enumerate its elements of a given order."""


class MonoidMismatchError(AlgebraError):
    """Two series over different monoids (or different rings) were combined,
    or a map between a base and its Rees quotient was given a series over
    the wrong one of the two."""


class ProperError(AlgebraError):
    """A series had a nonzero (or non-unit) coefficient at the identity where
    a proper series (or a 1 + proper one) was required."""

