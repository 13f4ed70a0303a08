import math
import random

import pytest

from wfst import Semiring, SemiringError

ALL = (Semiring.BOOLEAN, Semiring.TROPICAL, Semiring.REAL)


def draw(rng, kind):
    if kind is Semiring.BOOLEAN:
        return rng.choice((0.0, 1.0))
    if kind is Semiring.TROPICAL:
        return rng.choice((0.0, 0.5, 1.5, 3.0, math.inf))
    return rng.choice((0.0, 0.25, 0.5, 1.0, 2.0))


def close(kind, a, b):
    if kind is Semiring.REAL:
        return a == b == 0.0 or abs(a - b) <= 1e-12 * max(abs(a), abs(b))
    return a == b


@pytest.mark.parametrize("kind", ALL)
def test_identities(kind):
    rng = random.Random(7)
    for _ in range(200):
        a = draw(rng, kind)
        assert kind.combine(a, kind.zero) == a
        assert kind.combine(kind.zero, a) == a
        assert kind.extend(a, kind.one) == a
        assert kind.extend(kind.one, a) == a
        # zero annihilates
        assert kind.extend(a, kind.zero) == kind.zero
        assert kind.extend(kind.zero, a) == kind.zero


@pytest.mark.parametrize("kind", ALL)
def test_laws_random_triples(kind):
    rng = random.Random(11)
    for _ in range(2000):
        a, b, c = (draw(rng, kind) for _ in range(3))
        assert close(kind, kind.combine(kind.combine(a, b), c),
                     kind.combine(a, kind.combine(b, c)))
        assert close(kind, kind.extend(kind.extend(a, b), c),
                     kind.extend(a, kind.extend(b, c)))
        assert close(kind, kind.combine(a, b), kind.combine(b, a))
        assert close(kind, kind.extend(a, kind.combine(b, c)),
                     kind.combine(kind.extend(a, b), kind.extend(a, c)))
        assert close(kind, kind.extend(kind.combine(a, b), c),
                     kind.combine(kind.extend(a, c), kind.extend(b, c)))


def test_specific_values():
    t = Semiring.TROPICAL
    assert t.zero == math.inf and t.one == 0.0
    assert t.combine(2.0, 3.0) == 2.0
    assert t.extend(2.0, 3.0) == 5.0
    r = Semiring.REAL
    assert r.zero == 0.0 and r.one == 1.0
    assert r.combine(0.25, 0.5) == 0.75
    assert r.extend(0.25, 0.5) == 0.125
    b = Semiring.BOOLEAN
    assert b.combine(0.0, 1.0) == 1.0
    assert b.extend(0.0, 1.0) == 0.0


def test_membership():
    assert Semiring.TROPICAL.member(-1.0)  # costs may go negative
    assert not Semiring.TROPICAL.member(float("nan"))
    assert not Semiring.TROPICAL.member(-math.inf)
    assert Semiring.TROPICAL.member(math.inf)
    assert not Semiring.BOOLEAN.member(0.5)
    assert not Semiring.REAL.member(math.inf)
    with pytest.raises(SemiringError):
        Semiring.REAL.check(-0.5)


@pytest.mark.parametrize("kind", ALL)
def test_format_parse_roundtrip(kind):
    rng = random.Random(3)
    for _ in range(100):
        w = draw(rng, kind)
        assert kind.parse(kind.format(w)) == w
