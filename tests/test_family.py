"""Certificates, the semiabelian decision procedure, and the membership screen.

Frozen expectations here were derived by brute force (element-set oracles)
or by independent runs of the search utilities; the witness group for the
derived-length screen was found by seeded random search inside an iterated
wreath tower and its generators are pinned below.
"""

import gc
import time

import numpy as np
import pytest

from oracles import brute_derived_length, brute_rank, table_subgroups
from pgf import family
from pgf.census import SCREEN_INCONCLUSIVE, classify_table
from pgf.errors import CapExceeded, InvalidCertificate
from pgf.family import (
    Cyclic,
    DirectProduct,
    FrattiniQuotient,
    Wreath,
    certificate_corpus,
    declared_rank,
    eval_cert,
    is_semiabelian,
    parse_cert,
    semiabelian_table,
    serialize_cert,
    validate_witness,
)
from pgf.datasets import load_fixture
from pgf.group import PermGroup
from pgf.ops import cyclic_group, derived_length, rank, wreath_regular
from pgf.pc import parse_pc_text, pc_to_perm
from pgf.perm import Perm
from pgf.ramification import compare_bounds
from pgf.table import CayleyTable

# order 128, rank 2, derived length 3; found by seeded search over pairs of
# random elements of the iterated wreath tower on 16 points, then pinned
DL3_A = (7, 8, 5, 6, 1, 2, 4, 3, 13, 14, 16, 15, 9, 10, 12, 11)
DL3_B = (10, 9, 11, 12, 16, 15, 13, 14, 1, 2, 4, 3, 8, 7, 5, 6)


def dl3_group():
    return PermGroup([Perm(DL3_A), Perm(DL3_B)])


# ----- certificate grammar ----------------------------------------------------


ROUND_TRIP = [
    "C(2,1)",
    "C(3,2)",
    "D(C(2,1),C(2,2))",
    "W(C(2,1),C(2,1))",
    "D(C(2,2),W(C(2,1),C(2,1)))",
    "Q(C(2,2);g1^2)",
    "Q(W(C(2,1),C(2,1));[g1,g2],g1^2)",
    "Q(Q(C(2,3);g1^4);g1^2)",
    "Q(D(C(2,2),C(2,2));g1^2*g2^2)",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_serialize_round_trip(text):
    c = parse_cert(text)
    assert serialize_cert(c) == text
    assert parse_cert(serialize_cert(c)) == c


def test_parse_tolerates_whitespace():
    c = parse_cert(" W( C(2,1) , C(2,1) ) ")
    assert serialize_cert(c) == "W(C(2,1),C(2,1))"


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "X(2,1)",
        "C(4,1)",  # not prime
        "C(2,0)",
        "C(2)",
        "W(C(2,1))",
        "D(C(2,1),C(2,1)",
        "Q(C(2,2))",  # missing word list
        "Q(C(2,2);)",
        "Q(C(2,2);h1)",
        "Q(C(2,2);g1^)",
        "Q(C(2,2);[g1)",
        "C(2,1)extra",
    ],
)
def test_parser_rejects_malformed(bad):
    with pytest.raises(InvalidCertificate):
        parse_cert(bad)


def test_declared_rank_structure():
    assert declared_rank(parse_cert("C(3,2)")) == 1
    assert declared_rank(parse_cert("D(C(2,1),C(2,2))")) == 2
    assert declared_rank(parse_cert("W(D(C(2,1),C(2,1)),C(2,1))")) == 3
    assert declared_rank(parse_cert("Q(W(C(2,1),C(2,1));[g1,g2])")) == 2


# ----- evaluation -------------------------------------------------------------


def test_eval_cyclic():
    g = eval_cert(parse_cert("C(2,3)"))
    assert g.order == 8
    assert sorted(p.order() for p in g.elements()) == [1, 2, 4, 4, 8, 8, 8, 8]


def test_eval_wreath_is_dihedral():
    g = eval_cert(parse_cert("W(C(2,1),C(2,1))"))
    assert g.order == 8
    assert rank(g) == 2
    ct = CayleyTable.from_perm_group(g)
    assert not ct.is_abelian_ids(range(8))
    assert sorted(ct.element_orders().tolist()) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_eval_rejects_mixed_primes():
    with pytest.raises(InvalidCertificate):
        eval_cert(parse_cert("D(C(2,1),C(3,1))"))
    with pytest.raises(InvalidCertificate):
        eval_cert(parse_cert("W(C(3,1),C(2,2))"))


def test_cert_prime_checks_leaves_left_to_right():
    term = DirectProduct(Wreath(Cyclic(2, 1), Cyclic(4, 1)), FrattiniQuotient(Cyclic(6, 1), ()))
    with pytest.raises(InvalidCertificate, match="^4 is not prime$"):
        family.cert_prime(term)


def quotient_chain(levels):
    """Q(...Q(C(2,2);g1^2)...;g1^2): order 2 at every depth, nested levels + 1 deep."""
    return "Q(" * levels + "C(2,2)" + ";g1^2)" * levels


def test_chain_at_the_nesting_limit_builds_and_one_deeper_is_refused():
    at_limit = parse_cert(quotient_chain(family.MAX_NESTING - 1))
    assert eval_cert(at_limit).order == 2
    assert serialize_cert(at_limit) in compare_bounds(at_limit)
    assert is_semiabelian(eval_cert(at_limit)).flag
    with pytest.raises(InvalidCertificate, match=f"nesting deeper than {family.MAX_NESTING} at position"):
        parse_cert(quotient_chain(family.MAX_NESTING))
    # a term built in code is refused by eval_cert before it recurses
    deeper = FrattiniQuotient(at_limit, at_limit.words)
    with pytest.raises(InvalidCertificate, match=f"nests deeper than {family.MAX_NESTING}"):
        eval_cert(deeper)


def nested_commutator(levels):
    """[[...[g1,g2]...,g2],g2] as a word tree, `levels` brackets deep."""
    w = ("gen", 1, 1)
    for _ in range(levels):
        w = ("comm", w, ("gen", 2, 1))
    return w


def test_cert_prime_walks_words_before_evaluation():
    # words count their brackets as the parser does: inside a quotient at
    # depth 1, MAX_NESTING - 1 commutator brackets are the most allowed
    child = Wreath(Cyclic(2, 1), Cyclic(2, 1))
    at_limit = FrattiniQuotient(child, (nested_commutator(family.MAX_NESTING - 1),))
    assert parse_cert(serialize_cert(at_limit)) == at_limit
    assert eval_cert(at_limit).order == 8
    deeper = FrattiniQuotient(child, (nested_commutator(family.MAX_NESTING),))
    with pytest.raises(InvalidCertificate, match=f"nesting deeper than {family.MAX_NESTING}"):
        parse_cert(serialize_cert(deeper))
    # words built in code are refused by eval_cert before _eval_word
    # recurses, however they nest: brackets, or products inside products
    product = ("gen", 1, 1)
    for _ in range(2000):
        product = ("prod", (product, ("gen", 1, 1)))
    for word in (nested_commutator(family.MAX_NESTING), nested_commutator(2000), product):
        with pytest.raises(InvalidCertificate, match=f"nests deeper than {family.MAX_NESTING}"):
            eval_cert(FrattiniQuotient(Cyclic(2, 2), (word,)))
    # the walk checks generator indices as the parser does: g0 is refused,
    # not read as the last generator
    with pytest.raises(InvalidCertificate, match="generator index must be >= 1, not 0"):
        eval_cert(FrattiniQuotient(child, (("comm", ("gen", 0, 1), ("gen", 1, 1)),)))


def test_certificate_route_leaves_no_cyclic_garbage():
    text = "Q(D(C(2,2),C(2,1));g1^2)"
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        cert = parse_cert(text)
        eval_cert(cert)
        compare_bounds(cert)
        del cert
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_eval_quotient_selector_must_lie_in_frattini():
    with pytest.raises(InvalidCertificate):
        eval_cert(parse_cert("Q(C(2,2);g1)"))
    with pytest.raises(InvalidCertificate):
        eval_cert(parse_cert("Q(W(C(2,1),C(2,1));g2)"))


QUOTIENT_CASES = [
    ("Q(C(2,2);g1^2)", 2, 1),
    ("Q(C(2,3);g1^4)", 4, 1),
    ("Q(C(3,2);g1^3)", 3, 1),
    ("Q(W(C(2,1),C(2,1));[g1,g2])", 4, 2),
    ("Q(W(C(3,1),C(3,1));[g1,g2])", 9, 2),
    ("Q(D(C(2,2),C(2,2));g1^2*g2^2)", 8, 2),
    ("Q(D(C(3,2),C(3,1));g1^3)", 9, 2),
    ("Q(Q(C(2,3);g1^4);g1^2)", 2, 1),
    ("Q(W(C(2,1),C(2,1));[g1,g2],g1^2)", 4, 2),
    # a quotient of index 2048, half of DEFAULT_DEGREE_CAP
    ("Q(D(C(2,6),C(2,6));g1^32)", 2048, 2),
]


@pytest.mark.parametrize("text,order,rk", QUOTIENT_CASES)
def test_eval_quotient_certificates(text, order, rk):
    c = parse_cert(text)
    g = eval_cert(c)
    assert g.order == order
    assert declared_rank(c) == rk == rank(g)


def test_eval_declared_rank_checked_against_brute_force():
    for text in ["C(3,1)", "W(C(2,1),C(2,1))", "D(C(2,1),C(2,2))"]:
        c = parse_cert(text)
        g = eval_cert(c)
        l = 3 if "3" in text.split(",")[0] else 2
        assert declared_rank(c) == brute_rank(g.elements(), l, g.degree)


def test_eval_enforces_order_cap(monkeypatch):
    with pytest.raises(CapExceeded, match=r"W\(C\(3,2\),C\(3,2\)\) exceeds"):
        eval_cert(parse_cert("W(C(3,2),C(3,2))"))  # order 3**20
    # degree 2**13 passes the degree limit, which is checked before any
    # group is built
    monkeypatch.setattr(family, "cyclic_group", None)
    with pytest.raises(CapExceeded, match="degree 4096"):
        eval_cert(parse_cert("C(2,13)"))


@pytest.mark.parametrize("text", ["C(2,20000)", "C(3,30000000)"])
def test_eval_rejects_huge_orders_without_computing_them(text):
    # the power is never formed, and the message carries no huge number
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        eval_cert(parse_cert(text))
    assert time.perf_counter() - t0 < 1.0
    assert len(str(exc.value)) < 120


MERSENNE_61 = 2**61 - 1  # prime; trial division would take minutes


def test_huge_prime_leaf_fails_the_size_limit_before_the_primality_test(monkeypatch):
    def no_primality_test(p):
        raise AssertionError(f"primality of {p} tested")

    monkeypatch.setattr(family, "is_prime", no_primality_test)
    want = rf"C\({MERSENNE_61},1\) exceeds the size limits: order 1048576, degree 4096"
    with pytest.raises(CapExceeded, match=want):
        parse_cert(f"C({MERSENNE_61},1)")
    with pytest.raises(CapExceeded, match=want):
        eval_cert(Cyclic(MERSENNE_61, 1))


def test_eval_is_cached():
    c = parse_cert("W(C(2,2),C(2,2))")
    assert eval_cert(c) is eval_cert(c)


# ----- corpus -----------------------------------------------------------------


def test_corpus_is_deterministic_and_within_caps():
    corpus = certificate_corpus()
    again = certificate_corpus()
    assert corpus == again
    assert len(set(serialize_cert(c) for c in corpus)) == len(corpus)
    texts = [serialize_cert(c) for c in corpus]
    assert "C(2,1)" in texts and "C(3,2)" in texts
    assert "W(C(2,1),C(2,1))" in texts
    assert "W(C(3,2),C(3,2))" not in texts  # order cap
    wreath_rooted = [c for c in corpus if isinstance(c, Wreath)]
    assert len(wreath_rooted) >= 30
    assert any(isinstance(c, FrattiniQuotient) for c in corpus)


def test_corpus_sizes_per_constructor_count():
    assert [len(certificate_corpus(m)) for m in (1, 2, 3)] == [27, 110, 587]


def test_corpus_constructor_count_bounded():
    def constructors(c):
        if isinstance(c, Cyclic):
            return 0
        if isinstance(c, FrattiniQuotient):
            return 1 + constructors(c.child)
        if isinstance(c, Wreath):
            return 1 + constructors(c.inner) + constructors(c.outer)
        return 1 + constructors(c.left) + constructors(c.right)

    for c in certificate_corpus():
        assert constructors(c) <= 3


def test_corpus_sample_sound():
    # the full-corpus soundness sweep lives in the acceptance suite; spot a
    # cheap slice here to keep the unit loop fast
    corpus = [c for c in certificate_corpus() if eval_order_bound(c) <= 64]
    assert len(corpus) >= 20
    for c in corpus:
        g = eval_cert(c)
        v = is_semiabelian(g)
        assert v.flag, serialize_cert(c)
        assert validate_witness(CayleyTable.from_perm_group(g), v.witness)


def eval_order_bound(c):
    if isinstance(c, Cyclic):
        return c.prime**c.exponent
    if isinstance(c, DirectProduct):
        return eval_order_bound(c.left) * eval_order_bound(c.right)
    if isinstance(c, Wreath):
        m = eval_order_bound(c.outer)
        return eval_order_bound(c.inner) ** m * m
    return eval_order_bound(c.child)


# ----- semiabelian decision ---------------------------------------------------


def test_trivial_and_abelian_groups():
    triv = PermGroup([], degree=1)
    v = is_semiabelian(triv)
    assert v.flag and v.witness == ()
    c8 = cyclic_group(2, 3)
    v = is_semiabelian(c8)
    assert v.flag
    assert len(v.witness) == 1
    a_ids, h_ids = v.witness[0]
    assert len(a_ids) == 8 and h_ids == (0,)
    assert validate_witness(CayleyTable.from_perm_group(c8), v.witness)


def test_dihedral_and_quaternion_are_semiabelian():
    d4 = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    v = is_semiabelian(d4)
    assert v.flag
    assert validate_witness(CayleyTable.from_perm_group(d4), v.witness)
    q8 = pc_to_perm(
        [p for p in load_fixture("o8.pc") if p.group_id[1] == 5][0]
    )
    v8 = is_semiabelian(q8)
    assert v8.flag
    assert validate_witness(CayleyTable.from_perm_group(q8), v8.witness)


def test_all_small_fixtures_semiabelian():
    for name in ("o8.pc", "o16.pc", "o27.pc", "o32.pc", "o81.pc"):
        for pres in load_fixture(name):
            ct = CayleyTable.from_pc(pres)
            v = semiabelian_table(ct)
            assert v.flag, pres.group_id
            assert validate_witness(ct, v.witness), pres.group_id


def test_witness_chains_shrink_to_trivial():
    d4 = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    v = is_semiabelian(d4)
    assert v.witness[-1][1] == (0,)
    sizes = [len(h) for _, h in v.witness]
    assert sizes == sorted(sizes, reverse=True)


def test_validate_witness_rejects_tampering():
    d4 = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    ct = CayleyTable.from_perm_group(d4)
    v = is_semiabelian(d4)
    good = v.witness
    assert validate_witness(ct, good)
    # drop the final step: chain no longer reaches the trivial group
    assert not validate_witness(ct, good[:-1])
    # replace the first A by a non-normal subgroup when one exists
    bad = (((1, 2), good[0][1]),) + good[1:]
    assert not validate_witness(ct, bad)


def d4_steps():
    """The table of D4 and witness steps built from its rotations R = <r>,
    r of order 4, its centre <r**2>, a reflection s and the whole group:
    name -> chain, one valid chain and one chain per condition whose first
    step fails it (a non-closed A fails normality and covering too)."""
    ct = CayleyTable.from_perm_group(wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1)))
    t = ct.table
    orders = ct.element_orders()
    r = int(np.flatnonzero(orders == 4)[0])
    z = int(t[r, r])
    rot = tuple(sorted({0, r, z, int(t[z, r])}))
    s = int(next(x for x in range(ct.n) if orders[x] == 2 and x not in rot))
    whole = tuple(range(ct.n))
    tail = (((0, s), (0,)),)
    return ct, {
        "valid": ((rot, (0, s)),) + tail,
        "A not closed": (((0, r), (0, s)),) + tail,
        "A not abelian": ((whole, (0, s)),) + tail,
        "A not normal": (((0, s), rot), (rot, (0,))),
        "H not closed": ((rot, (0, s, int(t[s, r]))),) + tail,
        "H not proper": ((rot, whole),),
        "A*H short of the group": ((rot, (0, z)), ((0, z), (0,))),
    }


def test_validate_witness_accepts_the_valid_d4_chain():
    ct, chains = d4_steps()
    assert validate_witness(ct, chains["valid"])


@pytest.mark.parametrize(
    "fault",
    [
        "A not closed",
        "A not abelian",
        "A not normal",
        "H not closed",
        "H not proper",
        "A*H short of the group",
    ],
)
def test_validate_witness_rejects_each_failed_condition(fault):
    ct, chains = d4_steps()
    assert not validate_witness(ct, chains[fault])


def test_dl3_group_is_not_semiabelian():
    g = dl3_group()
    assert g.order == 128
    assert rank(g) == 2
    assert derived_length(g) == 3
    v = is_semiabelian(g)
    assert not v.flag
    assert v.witness is None
    assert v.search["pairs_tested"] >= 0
    assert v.search["subgroups"] > 0


# two groups of order 64 with rank 2 and derived length 2, which the
# dl > rank screen leaves open; found by random central-extension tails
# over the order-32 catalogue
SCREEN_OPEN_64 = """
GROUP 64 1
PRIME 2
NGENS 6
POWER 2 = g4^1*g6^1
POWER 4 = g5^1*g6^1
COMM 2 1 = g3^1*g4^1*g6^1
COMM 3 1 = g6^1
COMM 3 2 = g6^1
COMM 4 1 = g5^1
END

GROUP 64 2
PRIME 2
NGENS 6
POWER 1 = g5^1
POWER 2 = g4^1
POWER 3 = g6^1
POWER 4 = g5^1
COMM 2 1 = g3^1*g4^1
COMM 3 1 = g6^1
COMM 3 2 = g6^1
COMM 4 1 = g5^1
END
"""


@pytest.mark.parametrize("index, subgroups", [(1, 105), (2, 57)])
def test_search_refutes_groups_the_screen_leaves_open(index, subgroups):
    pres = parse_pc_text(SCREEN_OPEN_64)[index - 1]
    ct = CayleyTable.from_pc(pres)
    rec = classify_table(pres, ct)
    assert (rec.rank, rec.derived_length, rec.screen) == (2, 2, SCREEN_INCONCLUSIVE)
    assert not rec.semiabelian
    search = {"subgroups": subgroups, "classes_examined": 1, "pairs_tested": 0}
    assert semiabelian_table(ct).search == search
    # by brute force: no normal abelian A, 1 < |A| < |G|, and proper H
    # with |A||H| = |G||A meet H|, so G is no product AH
    subs = table_subgroups(ct)
    assert len(subs) == subgroups
    t, conj = ct.table, ct.conj()
    normal_abelian = [
        a
        for a in subs
        if 1 < len(a) < ct.n
        and set(conj[:, list(a)].ravel().tolist()) == set(a)
        and (t[np.ix_(a, a)] == t[np.ix_(a, a)].T).all()
    ]
    assert normal_abelian
    for a in normal_abelian:
        for h in subs - {tuple(range(ct.n))}:
            assert len(a) * len(h) != ct.n * len(set(a) & set(h)), (a, h)


def test_screen_values():
    # the census screen rules a group out exactly when dl > rank
    d4 = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    assert derived_length(d4) <= rank(d4)
    assert derived_length(cyclic_group(2, 3)) <= rank(cyclic_group(2, 3))
    assert derived_length(dl3_group()) > rank(dl3_group())


def test_screen_never_contradicts_semiabelian():
    pool = []
    for name in ("o8.pc", "o16.pc", "o27.pc"):
        pool.extend(load_fixture(name))
    for pres in pool:
        g = pc_to_perm(pres)
        if derived_length(g) > rank(g):
            assert not is_semiabelian(g).flag


def test_semiabelian_quotient_closure_spot_check():
    """Quotients of semiabelian groups stay semiabelian (20 seeded pairs)."""
    from pgf.ops import quotient_group

    rng = np.random.default_rng(11)
    pool = [p for p in load_fixture("o16.pc")] + [
        p for p in load_fixture("o8.pc")
    ]
    checked = 0
    while checked < 20:
        pres = pool[int(rng.integers(len(pool)))]
        g = pc_to_perm(pres)
        assert is_semiabelian(g).flag
        ct = CayleyTable.from_perm_group(g)
        lat = ct.lattice()
        normals = [
            i
            for i in lat.normalised_by(lat.subgroups, ct.gen_ids).tolist()
            if 1 < lat.orders[i] < ct.n
        ]
        if not normals:
            continue
        sub = normals[int(rng.integers(len(normals)))]
        n = PermGroup([g.elements()[i] for i in lat.ids(sub)], degree=g.degree)
        q = quotient_group(g, n)
        assert is_semiabelian(q.group).flag
        checked += 1


def test_verdicts_are_deterministic():
    d4 = wreath_regular(cyclic_group(2, 1), cyclic_group(2, 1))
    assert is_semiabelian(d4) == is_semiabelian(d4)
