"""Constructions and invariants on permutation groups.

These all run in permutation space (stabilizer chains plus normal closures);
the Cayley-table layer recomputes the same invariants by a different
algorithm, and several tests here cross-check the two routes. Brute-force
element oracles provide a third, independent reference.
"""

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
from pgf.errors import CapExceeded, NotNormal, PgfError
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
from pgf.perm import Perm
from pgf.table import CayleyTable


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
    ct = CayleyTable.from_perm_group(w3, cap=128)
    assert ct.rank() == 3


def test_wreath_degree_cap():
    with pytest.raises(CapExceeded):
        wreath_regular(cyclic_group(2, 1), cyclic_group(2, 2), degree_cap=7)


def test_wreath_mixed_primes_allowed_as_perm_group():
    # the construction itself is generic; family certificates restrict primes
    w = wreath_regular(cyclic_group(2, 1), cyclic_group(3, 1))
    assert w.order == 2**3 * 3


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
    w = wreath_regular(cyclic_group(2, 1), cyclic_group(3, 1))
    with pytest.raises(PgfError):
        rank(w)


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
    for sub in ct.lattice().subgroups:
        if not sub.normal:
            continue
        n = PermGroup([ct.elems[i] for i in sub.ids], degree=4)
        q = quotient_group(d4, n)
        preserved = rank(q.group) == rank(d4) if q.group.order > 1 else False
        inside = set(n.elements()) <= frat
        if q.group.order == 1:
            continue  # the full group quotients to the trivial group
        assert preserved == inside, sub.ids


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
        center = {ct.elems[i] for i in ct.center_ids()}
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
