"""Constructions and invariants on permutation groups.

These all run in permutation space (stabilizer chains plus normal closures);
the Cayley-table layer recomputes the same invariants by a different
algorithm, and several tests here cross-check the two routes. Brute-force
element oracles provide a third, independent reference.
"""

import itertools
import random

import numpy as np
import pytest

from oracles import (
    brute_center,
    brute_commutator_subgroup,
    brute_derived_length,
    brute_frattini,
    brute_rank,
    closure_of,
)
from pgf import family, ops
from pgf.arith import exact_log
from pgf.errors import CapExceeded, NotNormal, PgfError
from pgf.family import (
    DirectProduct,
    FrattiniQuotient,
    Wreath,
    certificate_corpus,
    declared_rank,
    eval_cert,
    parse_cert,
    serialize_cert,
)
from pgf.group import PermGroup
from pgf.ops import (
    commutator_subgroup,
    cyclic_group,
    derived_length,
    derived_series,
    direct_product,
    factor_ranks,
    frattini_subgroup,
    lower_central_series,
    normal_closure,
    quotient_group,
    rank,
    wreath_regular,
)
from pgf.perm import Perm, commutator
from pgf.table import CayleyTable
from pgf.verify import naive_closure


def profile(g):
    """Isomorphism-sensitive fingerprint via the table route."""
    ct = CayleyTable.from_perm_group(g)
    return (
        ct.n,
        ct.is_abelian_ids(range(ct.n)),
        tuple(sorted(ct.element_orders().tolist())),
        len(ct.center_ids()),
        ct.lcs_orders(),
        ct.rank(),
        ct.derived_length(),
    )


def test_cyclic_group_basics():
    c4 = cyclic_group(2, 2)
    assert c4.order == 4 and c4.degree == 4
    assert rank(c4) == 1
    assert derived_length(c4) == 1
    c27 = cyclic_group(3, 3)
    assert c27.order == 27
    assert rank(c27) == brute_rank(c27.elements(), 3, c27.degree)


def test_cyclic_group_validation():
    with pytest.raises(ValueError):
        cyclic_group(4, 1)
    with pytest.raises(ValueError):
        cyclic_group(2, 0)


def test_direct_product_structure():
    a = cyclic_group(2, 1)
    b = cyclic_group(2, 2)
    g = direct_product(a, b)
    assert g.order == 8 and g.degree == a.degree + b.degree
    assert rank(g) == 2
    assert sorted(p.order() for p in g.elements()) == [1, 2, 2, 2, 4, 4, 4, 4]
    ct = CayleyTable.from_perm_group(g)
    assert ct.is_abelian_ids(range(8))


def chain_fingerprint(g):
    """Base, generators, the chain's strong generators and, per level, the
    base point and transversal (point, inverse representative's image
    array)."""
    return (
        g.base(),
        [p.img0.tobytes() for p in g.generators],
        [s.tobytes() for s in g._chain.gens],
        [
            (lvl.base, [(x, e.tobytes()) for x, e in sorted(lvl.transversal.items())])
            for lvl in g._chain.levels
        ],
    )


def has_wreath(c):
    """Whether the certificate c builds a wreath product anywhere."""
    if isinstance(c, Wreath):
        return True
    return isinstance(c, DirectProduct) and (has_wreath(c.left) or has_wreath(c.right))


def assert_valid_chain(g, label):
    """g's chain is a base and strong generating set of the group its
    generators generate: each stored inverse representative sends its orbit
    point to the level's base; a naive orbit walk under the strong
    generators fixing the earlier base points gives exactly the level's
    points; the orbit sizes multiply to the order; and up to order 512 the
    elements are those of the chain that sifting the generators builds."""
    chain = g._chain
    order = 1
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
            assert u_inv[x] == lvl.base, label
        order *= len(orbit)
    assert order == g.order, label
    if g.order <= 512:
        ref = PermGroup(g.generators, degree=g.degree)
        assert g.elements() == ref.elements(), label


def test_direct_product_chain_is_the_chain_its_generators_build():
    """Every corpus direct product built from cyclic factors and direct
    products alone inherits exactly the chain that sifting its generators
    builds, including products of one group with itself. A wreath
    product's chain is assembled, not sifted, so a product with a wreath
    factor at any depth, and every product's G', which is assembled from
    the factors' derived subgroups, have valid chains instead. Elements are
    compared up to order 512, where listing them is cheap."""
    products = [c for c in certificate_corpus() if isinstance(c, DirectProduct)]
    assert len(products) == 477
    for text in ("D(C(2,1),C(2,1))", "D(C(3,1),W(C(3,1),C(3,1)))"):
        assert parse_cert(text) in products
    plain = [c for c in products if not has_wreath(c)]
    assert 0 < len(plain) < len(products)
    for c in products:
        g = eval_cert(c)
        label = serialize_cert(c)
        factors = eval_cert(c.left).order * eval_cert(c.right).order
        assert g.order == factors, label
        assert_valid_chain(commutator_subgroup(g), label)
        if c not in plain:
            assert_valid_chain(g, label)
            continue
        ref = PermGroup(g.generators)
        assert chain_fingerprint(g) == chain_fingerprint(ref), label
        assert g.order == ref.order, label
        if g.order <= 512:
            assert g.elements() == ref.elements(), label


def test_wreath_chains_are_valid():
    """Every corpus wreath's assembled chain is a base and strong
    generating set of its generators' group, of order |inner|**m * m."""
    wreaths = [c for c in certificate_corpus() if isinstance(c, Wreath)]
    assert len(wreaths) == 98
    for c in wreaths:
        g = eval_cert(c)
        inner, outer = eval_cert(c.inner), eval_cert(c.outer)
        assert g.order == inner.order**outer.order * outer.order
        assert_valid_chain(g, serialize_cert(c))


def test_wreath_with_trivial_factors():
    """A trivial factor gives the same group, degree and prime as
    adjoining the wreath's generators does."""
    trivial, c2 = PermGroup([], degree=2), cyclic_group(2, 1)
    for inner, outer, want in (
        (trivial, c2, (2, 4, 2)),
        (c2, trivial, (2, 2, 2)),
        (trivial, trivial, (1, 2, None)),
        (PermGroup([], degree=1), cyclic_group(3, 1), (3, 3, 3)),
    ):
        w = wreath_regular(inner, outer)
        assert (w.order, w.degree, w.prime) == want
        ref = PermGroup(w.generators, degree=w.degree)
        assert w.base() == ref.base()
        assert w.elements() == ref.elements()
        assert_valid_chain(w, repr(w))


def test_product_derived_subgroup_is_the_factors_derived_subgroups():
    """A product's G' is assembled from its factors' G' and has the order
    and members of the normal closure of its generator commutators; G'
    of G' is assembled in turn, and the lower central series starts with
    the same G'."""
    for c in certificate_corpus(max_constructors=2):
        if not isinstance(c, DirectProduct):
            continue
        g = eval_cert(c)
        label = serialize_cert(c)
        der = commutator_subgroup(g)
        gens = g.generators
        seeds = [commutator(x, y) for i, x in enumerate(gens) for y in gens[i + 1 :]]
        oracle = normal_closure(g, seeds)
        assert der.order == oracle.order, label
        assert all(oracle.contains(p) for p in der.generators), label
        assert all(der.contains(p) for p in oracle.generators), label
        a, b = der._factors
        assert a is commutator_subgroup(eval_cert(c.left)), label
        assert b is commutator_subgroup(eval_cert(c.right)), label
        assert commutator_subgroup(der)._factors is not None, label
        assert lower_central_series(g).groups[1] is der, label


def test_direct_product_with_a_trivial_factor():
    trivial = PermGroup([], degree=2)
    c3 = cyclic_group(3, 1)
    for a, b in ((trivial, c3), (c3, trivial)):
        g = direct_product(a, b)
        assert g.order == 3 and g.degree == 5
        assert chain_fingerprint(g) == chain_fingerprint(PermGroup(g.generators))


def test_wreath_c2_c2_is_dihedral():
    w = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    assert w.order == 8 and w.degree == 4
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    assert profile(w) == profile(d4)


def test_wreath_order_formula_and_unhinted_agreement():
    inner = cyclic_group(2, 2)  # C4, degree 4
    outer = cyclic_group(2, 1)
    w = wreath_regular(inner, outer)
    assert w.order == inner.order**outer.order * outer.order == 32
    # rebuild the chain with no order hint: same group
    rebuilt = PermGroup(list(w.generators), degree=w.degree)
    assert rebuilt.order == w.order
    assert all(rebuilt.contains(p) for p in w.generators)


def test_wreath_rank_is_additive():
    cases = [
        (cyclic_group(2, 1), cyclic_group(2, 2)),
        (cyclic_group(3, 1), cyclic_group(3, 1)),
        (wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1)), cyclic_group(2, 1)),
    ]
    for inner, outer in cases:
        w = wreath_regular(inner, outer)
        assert rank(w) == rank(inner) + rank(outer)


def test_iterated_wreath_128():
    w2 = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    w3 = wreath_regular(w2, cyclic_group(2, 1))
    assert w3.order == 128 and w3.degree == 8
    assert rank(w3) == 3
    ct = CayleyTable.from_perm_group(w3)
    assert ct.rank() == 3


def test_wreath_degree_cap():
    with pytest.raises(CapExceeded, match="wreath degree 8192 exceeds cap 4096"):
        wreath_regular(cyclic_group(2, 6), cyclic_group(2, 7))


def test_cyclic_and_direct_product_degree_cap():
    """Both refuse a degree past the cap before building anything; the
    cyclic check never forms l**k beyond it, nor tests a huge l for
    primality."""
    big = cyclic_group(2, 12)
    assert big.degree == 4096
    with pytest.raises(CapExceeded, match="cyclic degree 2\\*\\*13 exceeds cap 4096"):
        cyclic_group(2, 13)
    with pytest.raises(CapExceeded, match="cyclic degree 2\\*\\*1000000000"):
        cyclic_group(2, 10**9)
    with pytest.raises(CapExceeded, match="cyclic degree 2305843009213693951"):
        cyclic_group(2**61 - 1, 1)  # a prime, never trial-divided
    with pytest.raises(CapExceeded, match="direct product degree 8192 exceeds"):
        direct_product(big, big)
    assert direct_product(cyclic_group(2, 11), cyclic_group(2, 11)).degree == 4096


def test_wreath_mixed_primes_raise():
    # every group is an l-group, so products that mix primes are refused
    with pytest.raises(PgfError, match="l-group for l = 2"):
        wreath_regular(cyclic_group(2, 1), cyclic_group(3, 1))
    with pytest.raises(PgfError, match="l-group for l = 3"):
        direct_product(cyclic_group(3, 1), cyclic_group(2, 2))


def test_normal_closure_in_dihedral():
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    nc = normal_closure(d4, [s])
    ref = closure_of(
        [(g.inverse() * s) * g for g in d4.elements()], 4
    )
    assert nc.order == len(ref) == 4
    assert all(nc.contains(p) for p in ref)


def test_commutator_subgroup_matches_oracle():
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    der = commutator_subgroup(d4)
    ref = brute_commutator_subgroup(d4.elements(), 4)
    assert set(der.elements()) == ref


def test_derived_series_and_length():
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    ser = derived_series(d4)
    assert ser.orders == (8, 2, 1)
    assert derived_length(d4) == 2 == brute_derived_length(d4.elements(), 4)
    assert derived_length(cyclic_group(2, 1)) == 1
    assert derived_length(PermGroup([], degree=1)) == 0


def test_lower_central_series_d4():
    w = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    ser = lower_central_series(w)
    assert ser.orders == (8, 2, 1)
    assert factor_ranks(ser) == (2, 1)


def cross_check_corpus():
    """The depth-2 corpus groups of order at most 729, 78 of the 110: their
    quotient route takes about 1.5 s in all on a 2-vCPU VM."""
    corpus = certificate_corpus(max_constructors=2)
    return [c for c in corpus if eval_cert(c).order <= 729]


def test_factor_ranks_agree_with_quotient_route():
    """Frattini-index factor ranks equal the ranks of the explicit quotient
    groups G_i/G_{i+1} (and rank(G_i) where G_{i+1} is trivial)."""
    corpus = cross_check_corpus()
    assert len(corpus) == 78
    for c in corpus:
        g = eval_cert(c)
        ser = lower_central_series(g)
        ref = tuple(
            rank(top) if bot.order == 1 else rank(quotient_group(top, bot).group)
            for top, bot in zip(ser.groups, ser.groups[1:])
        )
        assert factor_ranks(ser) == ref, serialize_cert(c)


def test_rank_takes_the_prime_from_the_group():
    """A caller can no longer pass a prime: rank(C4, 3) used to read the
    Frattini index 4 in base 3 and return 0."""
    c4 = cyclic_group(2, 2)
    assert rank(c4) == 1
    assert frattini_subgroup(c4).order == 2
    assert factor_ranks(lower_central_series(c4)) == (1,)
    with pytest.raises(TypeError):
        rank(c4, 3)
    with pytest.raises(TypeError):
        frattini_subgroup(c4, 3)
    with pytest.raises(TypeError):
        factor_ranks(lower_central_series(c4), 3)
    trivial = PermGroup([Perm.identity(3)])
    assert rank(trivial) == 0
    assert frattini_subgroup(trivial).order == 1
    assert factor_ranks(lower_central_series(trivial)) == ()


def closure_frattini(top, bot_gens=()):
    """The former route, kept as an oracle: the normal closure in top of
    top's l-th powers, its pairwise commutators and bot_gens."""
    l = top.prime
    gens = top.generators
    seeds = [a**l for a in gens] + list(bot_gens)
    seeds += [commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1 :]]
    return normal_closure(top, seeds)


def closure_factor_rank(top, bot):
    sub = closure_frattini(top, bot.generators)
    return exact_log(top.order // sub.order, top.prime)


def test_frattini_by_chain_extension_matches_the_closure_route():
    """On every corpus group, the factor ranks of both series, the rank and
    the Frattini subgroup read from an extended chain agree with the normal
    closure of powers and commutators, and with the brute-force Frattini
    subgroup up to order 64."""
    corpus = certificate_corpus()
    assert len(corpus) == 587
    brute = 0
    for c in corpus:
        g = eval_cert(c)
        label = serialize_cert(c)
        for ser in (lower_central_series(g), derived_series(g)):
            ref = tuple(
                closure_factor_rank(top, bot)
                for top, bot in zip(ser.groups, ser.groups[1:])
            )
            assert factor_ranks(ser) == ref, label
        phi = frattini_subgroup(g)
        ref = closure_frattini(g)
        assert phi.order == ref.order, label
        assert all(phi.contains(s) for s in ref.generators), label
        fresh = PermGroup._from_chain(g.generators, g._chain)
        assert rank(fresh) == exact_log(g.order // ref.order, g.prime)
        assert rank(fresh) == declared_rank(c), label
        if g.order <= 64:
            want = brute_frattini(g.elements(), g.prime, g.degree)
            assert set(phi.elements()) == want, label
            brute += 1
    assert brute == 124


@pytest.fixture
def closure_calls(monkeypatch):
    """The groups ops.normal_closure is called on from here on."""
    calls = []
    closure = ops.normal_closure

    def counted(g, seeds):
        calls.append(g)
        return closure(g, seeds)

    monkeypatch.setattr(ops, "normal_closure", counted)
    return calls


def test_rank_is_computed_once_per_group(closure_calls):
    g = wreath_regular(cyclic_group(3, 1), cyclic_group(3, 1))
    assert rank(g) == 2
    assert rank(g) == 2
    assert closure_calls == [g]


SERIES_CALLS = {
    "rank": rank,
    "derived_series": derived_series,
    "lower_central_series": lower_central_series,
}


@pytest.mark.parametrize("names", list(itertools.permutations(SERIES_CALLS)))
def test_derived_subgroup_is_built_once_per_group(monkeypatch, names):
    """rank, derived_series and lower_central_series, called in any order
    on a fresh group, run exactly one normal closure for G'; the others
    build the derived series' later terms and the lower central series'
    terms below G'."""
    c2 = cyclic_group(2, 1)
    g = wreath_regular(wreath_regular(c2, c2), c2)
    built = []  # (group closed in, order of the closure)
    closure = ops.normal_closure

    def counted(h, seeds):
        out = closure(h, seeds)
        built.append((h, out.order))
        return out

    monkeypatch.setattr(ops, "normal_closure", counted)
    for name in names:
        SERIES_CALLS[name](g)
    assert built.count((g, 16)) == 1
    # G' once; G'' and G''' in the terms above them; gamma_3..gamma_5 in g
    assert len(built) == 1 + 2 + 3
    assert derived_series(g).orders == (128, 16, 2, 1)
    assert lower_central_series(g).orders == (128, 16, 4, 2, 1)


def test_lower_central_series_shares_the_cached_derived_subgroup():
    for c in certificate_corpus(max_constructors=2):
        g = eval_cert(c)
        der = commutator_subgroup(g)
        assert lower_central_series(g).groups[1] is der, serialize_cert(c)
        assert derived_series(g).groups[1] is der, serialize_cert(c)


def test_rank_additivity_claim_reuses_the_ranks_evaluation_computed(closure_calls):
    """Criterion 1 ranks every wreath and both factors; eval_cert has
    already ranked each, so the claim runs no normal closure, and its
    detail line is unchanged."""
    from pgf.verify import _claim_rank_additivity

    for c in certificate_corpus():
        eval_cert(c)
    closure_calls.clear()
    assert _claim_rank_additivity(None) == (
        "PASS",
        "rank additive on all 98 wreath certificates",
    )
    assert closure_calls == []


def test_lower_exp_p_series_c4():
    ct = CayleyTable.from_perm_group(cyclic_group(2, 2))
    assert ct.lower_exp_orders() == (4, 2, 1)


def test_frattini_matches_oracle_and_table():
    groups = {
        "d4": PermGroup(
            [Perm.from_cycles(4, [(1, 2, 3, 4)]), Perm.from_cycles(4, [(2, 4)])]
        ),
        "c8": cyclic_group(2, 3),
        "v4": direct_product(cyclic_group(2, 1), cyclic_group(2, 1)),
        "h27": None,
    }
    from pgf.datasets import load_fixture
    from pgf.pc import pc_to_perm

    groups["h27"] = pc_to_perm(
        [p for p in load_fixture("o27.pc") if p.group_id[1] == 4][0]
    )
    for name, g in groups.items():
        l = 2 if name != "h27" else 3
        f = frattini_subgroup(g)
        ref = brute_frattini(g.elements(), l, g.degree)
        assert set(f.elements()) == ref, name
        ct = CayleyTable.from_perm_group(g)
        assert len(ct.frattini_ids()) == f.order, name


def test_frattini_equals_first_exp_p_term():
    g = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    ct = CayleyTable.from_perm_group(g)
    f = frattini_subgroup(g)
    assert ct.lower_exp_orders()[1] == len(ct.frattini_ids()) == f.order


def test_rank_additive_over_direct_products():
    pool = [
        cyclic_group(2, 1),
        cyclic_group(2, 2),
        direct_product(cyclic_group(2, 1), cyclic_group(2, 1)),
        wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1)),
    ]
    for a in pool:
        for b in pool:
            assert rank(direct_product(a, b)) == rank(a) + rank(b)
    assert rank(direct_product(cyclic_group(3, 1), cyclic_group(3, 2))) == 2


def test_rank_rejects_mixed_order():
    # a group of mixed order cannot be built, so rank never sees one
    with pytest.raises(PgfError):
        rank(wreath_regular(cyclic_group(2, 1), cyclic_group(3, 1)))
    with pytest.raises(PgfError):
        rank(direct_product(cyclic_group(2, 1), cyclic_group(3, 1)))


def test_quotient_by_center_of_d4():
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    z = PermGroup([r * r])
    q = quotient_group(d4, z)
    assert q.group.order == 4
    orders = sorted(p.order() for p in q.group.elements())
    assert orders == [1, 2, 2, 2]  # Klein four
    # projection is a homomorphism with kernel the center
    rng = np.random.default_rng(5)
    els = d4.elements()
    for _ in range(20):
        a, b = els[rng.integers(8)], els[rng.integers(8)]
        assert q.project(a * b) == q.project(a) * q.project(b)
    assert all(q.project(p).is_identity() for p in z.elements())
    assert not q.project(r).is_identity()


def test_quotient_rank_law_over_d4_normals():
    """rank(G/N) == rank(G) exactly when N lies inside the Frattini subgroup."""
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    frat = set(frattini_subgroup(d4).elements())
    ct = CayleyTable.from_perm_group(d4)
    lat = ct.lattice()
    for pos in lat.normalised_by(lat.subgroups, ct.gen_ids).tolist():
        ids = lat.ids(pos)
        n = PermGroup([d4.elements()[i] for i in ids], degree=4)
        q = quotient_group(d4, n)
        preserved = rank(q.group) == rank(d4) if q.group.order > 1 else False
        inside = set(n.elements()) <= frat
        if q.group.order == 1:
            continue  # the full group quotients to the trivial group
        assert preserved == inside, ids


def linear_scan_quotient(g, n):
    """The former coset enumeration, kept as an oracle: each coset is found
    by scanning the cosets found so far, with one membership sift per step.
    Returns the coset representatives and the generators' projections."""
    reps = [g.identity]

    def identify(p):
        for j, r in enumerate(reps):
            if n.contains(p * r.inverse()):
                return j
        reps.append(p)
        return len(reps) - 1

    i = 0
    while i < len(reps):
        for t in g.generators:
            identify(reps[i] * t)
        i += 1
    return reps, [Perm([identify(r * t) + 1 for r in reps]) for t in g.generators]


def test_quotient_cosets_match_the_linear_scan(monkeypatch):
    """Cosets keyed by canonical elements are found in the order of the
    linear scan, with the same representatives and the same projections,
    on the 8 corpus quotients and on a quotient of index 128."""
    pairs = []

    def recorded(g, n):
        pairs.append((g, n))
        return quotient_group(g, n)

    monkeypatch.setattr(family, "quotient_group", recorded)
    monkeypatch.setattr(family, "_EVAL_CACHE", {})
    for c in certificate_corpus():
        if isinstance(c, FrattiniQuotient):
            eval_cert(c)
    assert len(pairs) == 8
    g = eval_cert(parse_cert("D(C(2,5),C(2,3))"))
    pairs.append((g, normal_closure(g, [g.generators[0] ** 16])))
    assert g.order // pairs[-1][1].order == 128
    for g, n in pairs:
        q = quotient_group(g, n)
        reps, projected = linear_scan_quotient(g, n)
        assert q.reps == tuple(reps)
        assert [q.project(t) for t in g.generators] == projected
        assert q.group.generators == tuple(p for p in projected if not p.is_identity())
    with pytest.raises(PgfError, match="not in the group being quotiented"):
        q.project(Perm.from_cycles(g.degree, [(1, g.degree)]))


def test_quotient_requires_normal():
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    d4 = PermGroup([r, s])
    with pytest.raises(NotNormal):
        quotient_group(d4, PermGroup([s]))


def test_center_matches_oracle():
    # the table route is the only center computation
    for g in (
        wreath_regular(cyclic_group(2, 1), cyclic_group(2, 2)),
        wreath_regular(cyclic_group(3, 1), cyclic_group(3, 1)),
    ):
        ct = CayleyTable.from_perm_group(g)
        center = {g.elements()[i] for i in ct.center_ids()}
        assert center == brute_center(g.elements())


def test_larger_wreath_frattini_quotient():
    # order 3**4, Frattini index 9
    w = wreath_regular(cyclic_group(3, 1), cyclic_group(3, 1))
    assert w.order == 81
    f = frattini_subgroup(w)
    assert w.order // f.order == 9
    q = quotient_group(w, f)
    assert q.group.order == 9
    assert rank(w) == 2


def symmetric_group(n):
    return PermGroup(
        [Perm.from_cycles(n, [(1, 2)]), Perm.from_cycles(n, [tuple(range(1, n + 1))])]
    )


def test_series_outside_l_groups_raise():
    # S4 and S5 are not l-groups, so no series of theirs is ever computed
    for n in (4, 5):
        with pytest.raises(PgfError, match="l-group for l = 2"):
            symmetric_group(n)


def random_word(rng, gens, length=12):
    p = gens[0] ** 0
    for _ in range(rng.randrange(1, length)):
        p = p * rng.choice(gens) ** rng.choice((1, -1))
    return p


def test_l_chain_agrees_with_naive_closure_on_corpus():
    """Every corpus group and its Frattini and derived subgroups have the
    order and the members of the naive closure of their generators; rank,
    derived length and the first lower-central factor rank equal the
    declared rank; and presentations convert to groups of their order."""
    from pgf.datasets import load_all_fixtures
    from pgf.pc import pc_to_perm

    rng = random.Random(2008)
    outside = 0
    for c in cross_check_corpus():
        g = eval_cert(c)
        label = serialize_cert(c)
        for h in (g, frattini_subgroup(g), commutator_subgroup(g)):
            ref = naive_closure(h.generators or [h.identity])
            assert h.order == len(ref), label
            words = [random_word(rng, g.generators) for _ in range(8)]
            others = []
            for _ in range(4):
                images = list(range(1, g.degree + 1))
                rng.shuffle(images)
                others.append(Perm(images))
            for p in words + others:
                assert h.contains(p) == (p in ref), label
            outside += sum(p not in ref for p in others)
        got = factor_ranks(lower_central_series(g))
        assert rank(g) == declared_rank(c) == got[0], label
        assert derived_length(g) <= rank(g), label
    assert outside > 500
    for pres in load_all_fixtures():
        if pres.order <= 32:
            assert pc_to_perm(pres).order == pres.order, pres.group_id
