"""Weight algebras every machine and algorithm is parameterized over.

Three semirings are supported:

* BOOLEAN:  ({false, true}, or, and)     -- unweighted automata
* TROPICAL: (R u {inf}, min, +)          -- costs / negative log probabilities
* REAL:     (R+, +, *)                   -- probabilities (acyclic use only)

Weights are stored as 64-bit floats everywhere; BOOLEAN uses 0.0 for false
and 1.0 for true, TROPICAL zero is the floating-point infinity.
"""

from __future__ import annotations

import enum
import math
import operator

from .errors import KindMismatchError, SemiringError

INF = math.inf


def _boolean_and(a: float, b: float) -> float:
    return 1.0 if (a and b) else 0.0


def _boolean_or(a: float, b: float) -> float:
    return 1.0 if (a or b) else 0.0


def _real_valid(w: float) -> bool:
    return 0.0 <= w < INF


# per kind: zero, one, (+), (x), carrier test for floats
_ALGEBRA = {
    "boolean": (0.0, 1.0, _boolean_or, _boolean_and, (0.0, 1.0).__contains__),
    # negative costs arise legitimately (e.g. back-off weights above one);
    # only NaN and -inf are excluded
    "tropical": (INF, 0.0, min, operator.add, (-INF).__lt__),
    "real": (0.0, 1.0, operator.add, operator.mul, _real_valid),
}


class Semiring(enum.Enum):
    BOOLEAN = "boolean"
    TROPICAL = "tropical"
    REAL = "real"

    def __init__(self, value):
        self.zero, self.one, plus, times, valid = _ALGEBRA[value]
        #: the unchecked ``(+)`` and ``(x)`` as plain callables, for inner
        #: loops whose operands are already known to be in the carrier
        self.plus = plus
        self.times = times
        #: one comparison telling whether a float is in the carrier; the
        #: kernels apply it to the weights they compute (an overflow to
        #: -inf or +inf, a NaN) and raise ``carrier_error`` when it fails
        self.valid = valid

    def member(self, w: float) -> bool:
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            return False
        return self.valid(w)

    def carrier_error(self, w) -> SemiringError:
        return SemiringError(f"{w!r} is not in the {self.value} carrier")

    def check(self, w: float) -> float:
        if type(w) is float and self.valid(w):
            return w
        if not self.member(w):
            raise self.carrier_error(w)
        return float(w)

    def combine(self, a: float, b: float) -> float:
        """The semiring's ``(+)``: alternative-path accumulation."""
        self.check(a)
        self.check(b)
        return self.plus(a, b)

    def extend(self, a: float, b: float) -> float:
        """The semiring's ``(x)``: path extension."""
        self.check(a)
        self.check(b)
        return self.times(a, b)

    def format(self, w: float) -> str:
        """Textual weight syntax: decimal literals, ``inf`` for TROPICAL zero;
        ``repr`` (``-1e+308``) for an integral weight of magnitude >= 1e16."""
        if w == INF:
            return "inf"
        if abs(w) < 1e16 and w == int(w):
            return str(int(w))
        return repr(w)

    def parse(self, text: str) -> float:
        if text == "inf":
            if self is not Semiring.TROPICAL:
                raise SemiringError(f"'inf' is not in the {self.value} carrier")
            return INF
        try:
            w = float(text)
        except ValueError:
            raise SemiringError(f"bad weight literal {text!r}") from None
        return self.check(w)


def require_same_kind(a, b):
    """Raise unless machines/values a and b share a semiring kind."""
    if a.kind is not b.kind:
        raise KindMismatchError(f"semiring mismatch: {a.kind.value} vs {b.kind.value}")
    return a.kind
