"""Stabilizer chains checked against the independent naive-closure reference.

The closure reference multiplies elements until saturation and never touches
the chain code, so order agreement between the two is a real cross-check.
Every chain is an l-group chain: generators of a group whose order is not a
prime power raise PgfError naming the prime taken from the first generator.
"""

import random

import numpy as np
import pytest

from pgf.arith import prime_power_root
from pgf.errors import CapExceeded, PgfError
from pgf.group import DEFAULT_ENUM_CAP, PermGroup
from pgf.perm import Perm, invert
from pgf.verify import naive_closure


def random_perm(rng, degree):
    imgs = list(range(1, degree + 1))
    rng.shuffle(imgs)
    return Perm(imgs)


# the Sylow 2-subgroup C2 wr C2 wr C2 of S8, of order 128
SYLOW2_S8 = [
    Perm.from_cycles(8, [(1, 2)]),
    Perm.from_cycles(8, [(1, 3), (2, 4)]),
    Perm.from_cycles(8, [(1, 5), (2, 6), (3, 7), (4, 8)]),
]


def sylow2_generators(n):
    """Generators of the Sylow 2-subgroup of S_n for n a power of 2: the
    swaps of the two halves of each block of 2, 4, ..., n points."""
    gens, half = [], 1
    while half < n:
        gens.append(Perm.from_cycles(n, [(i, i + half) for i in range(1, half + 1)]))
        half *= 2
    return gens


S4_GENS = [Perm.from_cycles(4, [(1, 2)]), Perm.from_cycles(4, [(1, 2, 3, 4)])]


def test_three_generator_example_order_eight():
    # closure of {(1 2), (3 4), (1 3)(2 4)}: the oracle says 8
    gens = [
        Perm.from_cycles(4, [(1, 2)]),
        Perm.from_cycles(4, [(3, 4)]),
        Perm.from_cycles(4, [(1, 3), (2, 4)]),
    ]
    assert len(naive_closure(gens)) == 8
    g = PermGroup(gens)
    assert g.order == 8


def test_identity_only_generators():
    g = PermGroup([Perm.identity(5)])
    assert g.order == 1
    assert g.contains(Perm.identity(5))
    assert not g.contains(Perm.from_cycles(5, [(1, 2)]))
    h = PermGroup([], degree=3)
    assert h.order == 1


def test_single_sixteen_cycle():
    c = Perm.from_cycles(16, [tuple(range(1, 17))])
    g = PermGroup([c])
    assert g.order == 16


def test_symmetric_group_order():
    # S4 (order 24) is not an l-group; its Sylow 2-subgroup D4 is
    assert len(naive_closure(S4_GENS)) == 24
    with pytest.raises(PgfError, match="l-group for l = 2"):
        PermGroup(S4_GENS)
    d4 = [Perm.from_cycles(4, [(1, 2, 3, 4)]), Perm.from_cycles(4, [(1, 3)])]
    assert PermGroup(d4).order == 8 == len(naive_closure(d4))


def test_alternating_membership():
    # A4 (order 12) is not an l-group; its normal Klein four-group is
    a4 = [Perm.from_cycles(4, [(1, 2, 3)]), Perm.from_cycles(4, [(2, 3, 4)])]
    with pytest.raises(PgfError, match="l-group for l = 3"):
        PermGroup(a4)
    gens = [Perm.from_cycles(4, [(1, 2), (3, 4)]), Perm.from_cycles(4, [(1, 3), (2, 4)])]
    g = PermGroup(gens)
    assert g.order == 4
    assert g.contains(Perm.from_cycles(4, [(1, 4), (2, 3)]))
    assert not g.contains(Perm.from_cycles(4, [(1, 2)]))
    assert not g.contains(Perm.from_cycles(4, [(1, 2, 3)]))
    for p in naive_closure(gens):
        assert g.contains(p)


def test_chain_order_matches_naive_closure_on_random_sets():
    """Random generator sets: the chain is built exactly when the closure
    has prime-power order, and then has its order and members; every
    other set raises PgfError."""
    rng = random.Random(20250825)
    built = rejected = 0
    while built + rejected < 60:
        degree = rng.randint(3, 9)
        gens = [random_perm(rng, degree) for _ in range(rng.randint(1, 3))]
        ref = naive_closure(gens, cap=4096)
        if ref is None or len(ref) == 1:
            continue
        if prime_power_root(len(ref)) is None:
            with pytest.raises(PgfError, match="l-group"):
                PermGroup(gens)
            rejected += 1
            continue
        g = PermGroup(gens)
        assert g.order == len(ref)
        # membership must accept exactly the closure
        for p in rng.sample(sorted(ref, key=lambda q: q.images), min(6, len(ref))):
            assert g.contains(p)
        for _ in range(6):
            p = random_perm(rng, degree)
            assert g.contains(p) == (p in ref)
        built += 1
    assert built >= 15 and rejected >= 15


def test_membership_rejects_outside_elements():
    rng = random.Random(99)
    gens = [Perm.from_cycles(6, [(1, 2, 3)]), Perm.from_cycles(6, [(4, 5, 6)])]
    g = PermGroup(gens)
    assert g.order == 9
    ref = naive_closure(gens)
    for _ in range(30):
        p = random_perm(rng, 6)
        assert g.contains(p) == (p in ref)


def test_elements_sorted_unique_and_capped():
    gens = [Perm.from_cycles(4, [(1, 2)]), Perm.from_cycles(4, [(3, 4)])]
    g = PermGroup(gens)
    els = g.elements()
    assert len(els) == 4 == g.order
    assert len(set(els)) == 4
    assert [e.images for e in els] == sorted(e.images for e in els)
    assert els[0].is_identity()
    # the Sylow 2-subgroup of S32, of order 2**31, builds its chain but
    # is too large to enumerate
    big = PermGroup(sylow2_generators(32))
    assert big.order == 2**31
    with pytest.raises(CapExceeded, match="exceeds enumeration cap 1048576"):
        big.elements()
    with pytest.raises(CapExceeded):
        big.columns(big.generators)


def test_rebuild_is_deterministic():
    gens = [
        Perm.from_cycles(9, [(1, 4, 7), (2, 5, 8), (3, 6, 9)]),
        Perm.from_cycles(9, [(1, 2, 3), (4, 6, 5)]),
    ]
    a = PermGroup(gens)
    b = PermGroup(gens)
    assert a.order == b.order == len(naive_closure(gens))
    assert a.base() == b.base()
    assert a.elements() == b.elements()
    rng = random.Random(3)
    for _ in range(20):
        p = random_perm(rng, 9)
        assert a.contains(p) == b.contains(p)


def test_order_hint_mismatch_raises():
    d4 = [Perm.from_cycles(4, [(1, 2, 3, 4)]), Perm.from_cycles(4, [(1, 3)])]
    assert PermGroup(d4, order_hint=8).order == 8
    with pytest.raises(ValueError, match="order hint 16"):
        PermGroup(d4, order_hint=16)  # hint larger than the true order
    with pytest.raises(ValueError, match="order hint 4"):
        PermGroup(d4, order_hint=4)  # hint smaller than the true order
    # a hint never cuts a build short: S4 is refused, not taken for order 8
    with pytest.raises(PgfError):
        PermGroup(S4_GENS, order_hint=8)


def test_random_element_lies_in_group():
    rng = random.Random(5)
    g = PermGroup(SYLOW2_S8)
    assert g.order == 128
    for _ in range(25):
        p = Perm.identity(8)
        for _ in range(rng.randrange(1, 12)):
            p = p * rng.choice(SYLOW2_S8)
        assert g.contains(p)
    # an odd-order element of S8 is never in a 2-group
    assert not g.contains(Perm.from_cycles(8, [(1, 2, 3)]))


def test_enum_cap_default_present():
    assert DEFAULT_ENUM_CAP == 2**20


def test_l_chain_matches_naive_closure_on_random_two_groups():
    # generators inside the Sylow 2-subgroup D4 x C2 of S6 = <(1 2), (3 4),
    # (1 3)(2 4), (5 6)>, so every generated group is a 2-group
    d4c2 = sorted(
        naive_closure(
            [
                Perm.from_cycles(6, [(1, 2)]),
                Perm.from_cycles(6, [(1, 3), (2, 4)]),
                Perm.from_cycles(6, [(5, 6)]),
            ]
        ),
        key=lambda q: q.images,
    )
    rng = random.Random(7)
    for _ in range(30):
        gens = rng.sample(d4c2, rng.randint(1, 3))
        ref = naive_closure(gens)
        g = PermGroup(gens)
        assert g.order == len(ref)
        assert set(g.elements()) == ref
        assert g.generators == tuple(p for p in gens if not p.is_identity())


def test_l_chain_rejects_generators_outside_l_groups():
    t12 = Perm.from_cycles(3, [(1, 2)])
    t23 = Perm.from_cycles(3, [(2, 3)])
    c = Perm.from_cycles(3, [(1, 2, 3)])
    assert PermGroup([c]).order == 3
    # l comes from the first generator; a 3-cycle and its square each
    # need the other adjoined first
    with pytest.raises(PgfError, match="l-group for l = 2"):
        PermGroup([t12, c])
    with pytest.raises(PgfError, match="l-group for l = 3"):
        PermGroup([c, t12])
    # two 2-elements generating S3
    with pytest.raises(PgfError, match="l-group for l = 2"):
        PermGroup([t12, t23])
    # a first generator of order 6 names no prime
    with pytest.raises(PgfError, match="order 6, which is not a prime power"):
        PermGroup([Perm.from_cycles(5, [(1, 2), (3, 4, 5)])])
    # S6 from 2-elements: the failure is a PgfError, never a RecursionError
    s6_involutions = [
        Perm.from_cycles(6, cycles)
        for cycles in ([(1, 2)], [(1, 4), (2, 5), (3, 6)], [(2, 3)], [(4, 5)])
    ]
    with pytest.raises(PgfError, match="l-group for l = 2"):
        PermGroup(s6_involutions)


def product_fold_elements(g):
    """The elements as products of representatives: fold one Perm product
    at a time over the levels, last level first, each representative
    inverted from its stored inverse, then sort by image tuple."""
    acc = [g.identity]
    for lvl in reversed(g._chain.levels):
        reps = [
            Perm._from0(invert(lvl.transversal[x])) for x in sorted(lvl.transversal)
        ]
        acc = [a * u for a in acc for u in reps]
    acc.sort(key=lambda p: p.images)
    return acc


def test_elements_match_the_product_fold_byte_for_byte():
    """On every corpus group of order at most 4096, the matrix-built element
    list equals the product fold: same images in the same order and dtype.
    Each group is rewrapped so that its cached element list is dropped."""
    from pgf.family import certificate_corpus, eval_cert, serialize_cert

    checked = 0
    for c in certificate_corpus():
        g = eval_cert(c)
        if g.order > 4096:
            continue
        fresh = PermGroup._from_chain(g.generators, g._chain)
        got = fresh.elements()
        want = product_fold_elements(fresh)
        assert len(got) == len(want) == g.order, serialize_cert(c)
        assert all(p.img0.dtype == np.int32 for p in got)
        assert b"".join(p.img0.tobytes() for p in got) == b"".join(
            p.img0.tobytes() for p in want
        ), serialize_cert(c)
        assert not got[-1].img0.flags.writeable
        checked += 1
    assert checked == 413


def test_chain_copy_extends_without_touching_the_original():
    c = PermGroup([Perm.from_cycles(4, [(1, 2), (3, 4)])])
    chain = c._chain.copy()
    assert chain.adjoin(Perm.from_cycles(4, [(1, 3), (2, 4)]).img0, 2)
    assert (chain.order(), c._chain.order()) == (4, 2)
    assert c._chain.base() == (1,) and len(c._chain.gens) == 1
    assert len(chain.gens) == 2


def test_adjoin_normalising_extends_by_powers_alone():
    """An element normalising the chain's group is adjoined through its
    powers, with the same group as adjoin builds; an element whose powers
    never enter the group raises PgfError naming the prime."""
    v = PermGroup([Perm.from_cycles(8, [(1, 2), (3, 4), (5, 6), (7, 8)])])
    r = Perm.from_cycles(8, [(1, 3, 5, 7), (2, 4, 6, 8)])  # r**2 outside v
    chain = v._chain.copy()
    assert chain._adjoin_normalising(r.img0, 2)
    ref = PermGroup(v.generators + (r,))
    assert chain.order() == ref.order == 8
    assert all(chain.contains(p) for p in ref.elements())
    assert not chain._adjoin_normalising(r.img0, 2)
    with pytest.raises(PgfError, match="l-group for l = 2"):
        v._chain.copy()._adjoin_normalising(
            Perm.from_cycles(8, [(1, 3, 5)]).img0, 2
        )


def test_chain_levels_hold_read_only_image_arrays():
    """On every corpus group, the chain's strong generators and each
    level's transversal entries are read-only int32 image arrays of the
    chain's degree; they form a base and strong generating set, each
    level's orbit points being the orbit of its base point under the
    strong generators that fix the earlier base points; each entry is the
    inverse of a representative sending the base point to its orbit point,
    the base point's entry being the identity; and the group's prime is
    the prime root of its order."""
    from pgf.family import certificate_corpus, eval_cert, serialize_cert

    corpus = certificate_corpus()
    assert len(corpus) == 587
    for c in corpus:
        g = eval_cert(c)
        label = serialize_cert(c)
        assert g.prime == prime_power_root(g.order), label
        chain = g._chain
        identity = np.arange(chain.degree)
        arrays = list(chain.gens)
        for i, lvl in enumerate(chain.levels):
            earlier = [m.base for m in chain.levels[:i]]
            gens = [s for s in chain.gens if (s[earlier] == earlier).all()]
            orbit, todo = {lvl.base}, [lvl.base]
            while todo:
                x = todo.pop()
                for y in {int(s[x]) for s in gens} - orbit:
                    orbit.add(y)
                    todo.append(y)
            assert orbit == set(lvl.transversal), label
            for x, u_inv in lvl.transversal.items():
                assert invert(u_inv)[lvl.base] == x, label
                arrays.append(u_inv)
            assert (lvl.transversal[lvl.base] == identity).all(), label
        for a in arrays:
            assert type(a) is np.ndarray and a.dtype == np.int32, label
            assert a.shape == (chain.degree,) and not a.flags.writeable, label


def test_sifting_every_element_leaves_the_identity():
    """Every element of each corpus group of order at most 2**10 sifts to
    the identity through the group's chain, so the stored inverses strip
    what the representatives factor."""
    from pgf.family import certificate_corpus, eval_cert, serialize_cert

    checked = 0
    for c in certificate_corpus():
        g = eval_cert(c)
        if g.order > 2**10:
            continue
        identity = g._chain._identity.tobytes()
        for row in g._element_matrix():
            residue, _ = g._chain._sift(row)
            assert residue.tobytes() == identity, serialize_cert(c)
        checked += 1
    assert checked == 333
