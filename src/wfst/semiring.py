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

from .errors import SemiringError

INF = math.inf


def _boolean_and(a: float, b: float) -> float:
    return 1.0 if (a and b) else 0.0


_TIMES = {"boolean": _boolean_and, "tropical": operator.add,
          "real": operator.mul}


class Semiring(enum.Enum):
    BOOLEAN = "boolean"
    TROPICAL = "tropical"
    REAL = "real"

    def __init__(self, value):
        #: the unchecked ``(x)`` as a plain callable, for inner loops whose
        #: weights were validated when their arcs were added
        self.times = _TIMES[value]

    @property
    def zero(self) -> float:
        if self is Semiring.BOOLEAN:
            return 0.0
        if self is Semiring.TROPICAL:
            return INF
        return 0.0

    @property
    def one(self) -> float:
        if self is Semiring.BOOLEAN:
            return 1.0
        if self is Semiring.TROPICAL:
            return 0.0
        return 1.0

    def member(self, w: float) -> bool:
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            return False
        if self is Semiring.BOOLEAN:
            return w in (0.0, 1.0)
        if self is Semiring.TROPICAL:
            # negative costs arise legitimately (e.g. back-off weights
            # above one); only NaN and -inf are excluded
            return w == w and w != -INF
        return 0.0 <= w < INF

    def check(self, w: float) -> float:
        if not self.member(w):
            raise SemiringError(f"{w!r} is not in the {self.value} carrier")
        return float(w)

    def combine(self, a: float, b: float) -> float:
        """The semiring's ``(+)``: alternative-path accumulation."""
        self.check(a)
        self.check(b)
        if self is Semiring.BOOLEAN:
            return 1.0 if (a or b) else 0.0
        if self is Semiring.TROPICAL:
            return min(a, b)
        return a + b

    def extend(self, a: float, b: float) -> float:
        """The semiring's ``(x)``: path extension."""
        self.check(a)
        self.check(b)
        return self.times(a, b)

    def compare(self, a: float, b: float) -> int:
        """Total order consistent with "better path": negative if a is better."""
        if self is Semiring.REAL:
            # higher probability is better
            return (b > a) - (b < a)
        if self is Semiring.BOOLEAN:
            return (b > a) - (b < a)  # true (1.0) sorts before false
        return (a > b) - (a < b)

    @property
    def idempotent(self) -> bool:
        return self is not Semiring.REAL

    def format(self, w: float) -> str:
        """Textual weight syntax: decimal literals, ``inf`` for TROPICAL zero."""
        if w == INF:
            return "inf"
        if w == int(w):
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
    from .errors import KindMismatchError

    if a.kind is not b.kind:
        raise KindMismatchError(f"semiring mismatch: {a.kind.value} vs {b.kind.value}")
    return a.kind
