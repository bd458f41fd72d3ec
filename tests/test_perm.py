"""Element-level permutation arithmetic.

Expected values here are either immediate from the definitions or computed
by hand on tiny cases; nothing depends on the heavier machinery.
"""

import random

import numpy as np
import pytest

from pgf.perm import Perm, commutator


def test_transposition_squares_to_identity():
    t = Perm.from_cycles(2, [(1, 2)])
    assert (t * t).is_identity()
    assert t * t == Perm.identity(2)


def test_compose_applies_left_factor_first():
    # a = (1 2 3), b = (1 2); (a*b)(x) = b(a(x))
    a = Perm.from_cycles(3, [(1, 2, 3)])
    b = Perm.from_cycles(3, [(1, 2)])
    ab = a * b
    assert ab(1) == 1  # a: 1->2, b: 2->1
    assert ab(2) == 3
    assert ab(3) == 2
    ba = b * a
    assert ba(1) == 3  # b: 1->2, a: 2->3
    assert ab != ba


def test_images_are_one_based_and_round_trip():
    p = Perm((3, 1, 2))
    assert p.images == (3, 1, 2)
    assert p(1) == 3 and p(2) == 1 and p(3) == 2
    assert Perm(p.images) == p
    assert p.degree == 3


def test_from_cycles_disjoint():
    p = Perm.from_cycles(4, [(1, 3), (2, 4)])
    assert p.images == (3, 4, 1, 2)
    q = Perm.from_cycles(5, [(2, 5, 3)])
    assert q.images == (1, 5, 2, 4, 3)


def test_from_cycles_rejects_bad_input():
    with pytest.raises(ValueError):
        Perm.from_cycles(4, [(1, 2), (2, 3)])  # not disjoint
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(1, 4)])  # point out of range
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(2, 2)])  # repeated point


def test_from_cycles_rejects_degree_zero():
    with pytest.raises(ValueError, match="degree must be at least 1"):
        Perm.from_cycles(0, [])


def test_constructor_validates_images():
    with pytest.raises(ValueError):
        Perm((1, 1, 3))
    with pytest.raises(ValueError):
        Perm((0, 1, 2))
    with pytest.raises(ValueError):
        Perm((2, 3, 4))
    with pytest.raises(ValueError):
        Perm(())


def test_non_integer_points_are_refused():
    # float images used to be truncated: [2.9, 1.1] became (1 2)
    for images in ([2.9, 1.1], [2.0, 1.0], ["2", "1"], [True]):
        with pytest.raises(ValueError, match="images must be integers"):
            Perm(images)
    # a fractional cycle point used to raise IndexError
    with pytest.raises(ValueError, match="point 1.5 is not an integer"):
        Perm.from_cycles(3, [(1.5, 2)])
    with pytest.raises(ValueError, match="is not an integer"):
        Perm.from_cycles(3, [(1, 2)])(1.5)
    # integers of any width are points
    assert Perm(np.array([2, 1], dtype=np.uint8)) == Perm.from_cycles(2, [(1, 2)])
    assert Perm.from_cycles(3, [(np.int64(1), 3)]).images == (3, 2, 1)
    assert Perm((2, 1, 3)).images == (2, 1, 3)


def test_inverse_random():
    rng = random.Random(7)
    for _ in range(50):
        deg = rng.randint(1, 12)
        imgs = list(range(1, deg + 1))
        rng.shuffle(imgs)
        p = Perm(imgs)
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()
        assert p.inverse().inverse() == p


def test_compose_is_associative_random():
    rng = random.Random(11)
    for _ in range(200):
        deg = rng.randint(2, 10)
        ps = []
        for _ in range(3):
            imgs = list(range(1, deg + 1))
            rng.shuffle(imgs)
            ps.append(Perm(imgs))
        a, b, c = ps
        assert (a * b) * c == a * (b * c)


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        Perm.from_cycles(3, [(1, 2)]) * Perm.from_cycles(4, [(1, 2)])


def test_element_order():
    assert Perm.identity(5).order() == 1
    assert Perm.from_cycles(6, [(1, 2, 3, 4, 5, 6)]).order() == 6
    assert Perm.from_cycles(5, [(1, 2), (3, 4, 5)]).order() == 6


def test_cycles_round_trip():
    p = Perm.from_cycles(6, [(1, 4, 2), (5, 6)])
    assert p.cycles() == [(1, 4, 2), (5, 6)]
    assert Perm.from_cycles(6, p.cycles()) == p
    assert Perm.identity(3).cycles() == []


def test_conjugate_matches_definition():
    rng = random.Random(13)
    for _ in range(50):
        deg = rng.randint(2, 9)
        imgs = list(range(1, deg + 1))
        rng.shuffle(imgs)
        a = Perm(imgs)
        rng.shuffle(imgs)
        g = Perm(imgs)
        # g^-1 a g relabels a by g: it sends g(x) to g(a(x))
        c = g.inverse() * a * g
        assert all(c(g(x)) == g(a(x)) for x in range(1, deg + 1))


def test_commutator_matches_definition():
    a = Perm.from_cycles(4, [(1, 2, 3)])
    b = Perm.from_cycles(4, [(2, 3, 4)])
    assert commutator(a, b) == a.inverse() * b.inverse() * a * b
    assert commutator(a, a).is_identity()
    rng = random.Random(17)
    for _ in range(50):
        deg = rng.randint(1, 9)
        x, y = (Perm(rng.sample(range(1, deg + 1), deg)) for _ in range(2))
        assert commutator(x, y) == x.inverse() * y.inverse() * x * y
    with pytest.raises(ValueError):
        commutator(a, Perm.identity(5))


def test_hash_and_eq():
    p = Perm((2, 1, 3))
    q = Perm.from_cycles(3, [(1, 2)])
    assert p == q and hash(p) == hash(q)
    assert len({p, q, Perm.identity(3)}) == 2


def test_power_matches_repeated_product():
    rng = random.Random(31)
    for _ in range(20):
        img = list(range(1, 9))
        rng.shuffle(img)
        p = Perm(img)
        acc = Perm.identity(8)
        for k in range(9):
            assert p**k == acc
            assert p ** (-k) == acc.inverse()
            acc = acc * p
