"""Cayley-table layer: tables, subgroup lattices, table-space invariants.

The subgroup machinery is compared against the subset-closure oracle, which
enumerates subgroups by brute force; table invariants are compared against
element-level brute force. Both oracles bypass tables entirely. The
table-level references (series terms from all pairs of elements, classes
fused by conjugating id tuples, position maps by conjugating every mask)
read the table but none of its lattice or generator shortcuts; every
fixture and the heavy groups are checked against them.
"""

import gc
import math
import weakref

import numpy as np
import pytest

from oracles import (
    all_pairs_invariants,
    brute_center,
    brute_commutator_subgroup,
    conjugation_position_maps,
    brute_derived_length,
    brute_frattini,
    brute_normal_subgroups,
    brute_rank,
    brute_subgroups,
    eager_fusion,
    is_abelian_elems,
    pc_elements,
    pc_multiply,
    table_closure,
    table_subgroups,
)
from pgf.datasets import load_all_fixtures, load_fixture
from pgf.errors import CapExceeded, PgfError
from pgf.family import eval_cert, parse_cert, semiabelian_table, validate_witness
from pgf.group import PermGroup
from pgf.ops import cyclic_group, derived_length, direct_product, rank
from pgf.pc import parse_pc_text, pc_to_perm
from pgf.perm import Perm
from pgf.table import CayleyTable, _closure, _first_rows, lattices

D4 = None  # filled by fixture below


def d4_group():
    r = Perm.from_cycles(4, [(1, 2, 3, 4)])
    s = Perm.from_cycles(4, [(2, 4)])
    return PermGroup([r, s])


def fixture_pres(name, index):
    for pres in load_fixture(name):
        if pres.group_id[1] == index:
            return pres
    raise LookupError


def elems_of_ids(els, ids):
    """The elements with the given ids, for a table whose ids are
    positions in the element list els."""
    return frozenset(els[i] for i in ids)


def test_table_indexing_and_identity():
    g = d4_group()
    ct = CayleyTable.from_perm_group(g)
    assert ct.n == 8
    assert (ct.table[0] == np.arange(8)).all()
    assert (ct.table[:, 0] == np.arange(8)).all()
    els = g.elements()
    for i in range(8):
        for j in range(8):
            assert els[ct.table[i, j]] == els[i] * els[j]
    inv = ct.inv()
    for i in range(8):
        assert ct.table[i, inv[i]] == 0 and ct.table[inv[i], i] == 0


def test_conj_map_matches_definition():
    g = d4_group()
    ct = CayleyTable.from_perm_group(g)
    conj = ct.conj()
    els = g.elements()
    for g in range(8):
        for x in range(8):
            expect = els[g].inverse() * els[x] * els[g]
            assert els[conj[g, x]] == expect


def test_from_pc_agrees_with_collection():
    pres = fixture_pres("o8.pc", 4)  # dihedral
    ct = CayleyTable.from_pc(pres)
    els = pc_elements(pres)
    for a in range(8):
        for b in range(8):
            assert els[ct.table[a, b]] == pc_multiply(pres, els[a], els[b])


def test_cap_enforced():
    c2048 = PermGroup([Perm.from_cycles(2048, [tuple(range(1, 2049))])])
    with pytest.raises(CapExceeded, match="order 2048 exceeds table cap 1024"):
        CayleyTable.from_perm_group(c2048)


def test_closure_matches_oracle():
    g = d4_group()
    ct = CayleyTable.from_perm_group(g)
    els = g.elements()
    # every single-generator closure
    for i in range(8):
        got = elems_of_ids(els, np.flatnonzero(_closure(ct.table, np.array([i]))))
        from oracles import closure_of

        assert got == closure_of([els[i]], 4)


def test_center_and_orders():
    g = d4_group()
    ct = CayleyTable.from_perm_group(g)
    els = g.elements()
    zs = elems_of_ids(els, ct.center_ids())
    assert zs == brute_center(els)
    assert sorted(ct.element_orders().tolist()) == sorted(p.order() for p in els)


FIXTURE_CASES = [
    ("o8.pc", 1),
    ("o8.pc", 2),
    ("o8.pc", 3),
    ("o8.pc", 4),
    ("o8.pc", 5),
    ("o16.pc", 6),
    ("o16.pc", 12),
    ("o16.pc", 13),
    ("o27.pc", 4),
    ("o27.pc", 5),
]


@pytest.mark.parametrize("name,index", FIXTURE_CASES)
def test_invariants_match_brute_force(name, index):
    pres = fixture_pres(name, index)
    g = pc_to_perm(pres)
    ct = CayleyTable.from_perm_group(g)
    els = g.elements()
    l = pres.prime
    assert ct.prime == l
    assert len(ct.frattini_ids()) == len(brute_frattini(els, l, g.degree))
    assert ct.rank() == brute_rank(els, l, g.degree)
    assert ct.derived_length() == brute_derived_length(els, g.degree)
    # the second term of the lower central series is the derived subgroup
    assert ct.lcs_orders()[1] == len(brute_commutator_subgroup(els, g.degree))


@pytest.mark.parametrize(
    "name,index",
    [("o8.pc", 2), ("o8.pc", 4), ("o8.pc", 5), ("o16.pc", 5), ("o16.pc", 12), ("o27.pc", 4)],
)
def test_all_subgroups_match_subset_oracle(name, index):
    pres = fixture_pres(name, index)
    g = pc_to_perm(pres)
    ct = CayleyTable.from_perm_group(g)
    lat = ct.lattice()
    ours = {elems_of_ids(g.elements(), lat.ids(i)) for i in lat.subgroups}
    # a subgroup of order l**k needs at most k generators
    k = round(math.log(g.order, pres.prime))
    ref = brute_subgroups(g.elements(), g.degree, max_gens=k)
    assert ours == ref
    assert_climb_facts(g)


def assert_climb_facts(g):
    """On g's table, each subgroup's recorded generators generate it, and
    it is normal exactly when x^-1 H x = H for every x, computed on the
    permutations."""
    ct = CayleyTable.from_perm_group(g)
    els = g.elements()
    lat = ct.lattice()
    normal = normal_positions(ct)
    for i in lat.subgroups:
        assert table_closure(ct, lat.gens(i)) == lat.ids(i)
        h = elems_of_ids(els, lat.ids(i))
        assert (i in normal) == all({x.inverse() * y * x for y in h} == h for x in els)
        assert lat.abelian[i] == is_abelian_elems(h)


def covering_pairs(lat, l):
    """Pairs H < K of subgroups with |K| = l|H|, counted from the finished
    lattice by intersection sizes: H lies in K when |H meet K| = |H|."""
    by_order = {}
    for i in lat.subgroups:
        by_order.setdefault(int(lat.orders[i]), []).append(lat.mask(i))
    total = 0
    for order, small in by_order.items():
        big = by_order.get(order * l)
        if big is None:
            continue
        meet = np.asarray(small, np.float32) @ np.asarray(big, np.float32).T
        total += int((meet == order).sum())
    return total


@pytest.mark.parametrize("name", ["o16.pc", "o27.pc", "o32.pc"])
def test_climb_forms_one_row_per_covering_pair(name):
    for pres in load_fixture(name):
        lat = CayleyTable.from_pc(pres).lattice()
        assert lat.builds == covering_pairs(lat, pres.prime), pres.group_id


HEAVY_729 = "D(C(3,1),D(C(3,1),W(C(3,1),C(3,1))))"


@pytest.fixture(scope="module")
def heavy729():
    return CayleyTable.from_perm_group(eval_cert(parse_cert(HEAVY_729)))


def test_heavy_group_forms_one_row_per_covering_pair(heavy729):
    lat = heavy729.lattice()
    assert len(lat.subgroups) == 3820
    assert lat.builds == covering_pairs(lat, 3) == 32526


def assert_recorded_generators(ct):
    """Each non-trivial subgroup K is reached from the subgroup P that its
    other recorded generators generate, which is in the lattice with index
    l in K, by adjoining the least id of K outside P."""
    lat = ct.lattice()
    known = {lat.ids(i) for i in lat.subgroups}
    for i in lat.subgroups[1:]:
        *rest, g = lat.gens(i)
        p = table_closure(ct, rest)
        assert p in known and len(p) * ct.prime == lat.orders[i], lat.gens(i)
        assert g == min(set(lat.ids(i)) - set(p)), lat.gens(i)


@pytest.mark.parametrize("name", ["o16.pc", "o27.pc", "o32.pc"])
def test_climb_adjoins_the_least_element_outside_the_parent(name):
    for pres in load_fixture(name):
        assert_recorded_generators(CayleyTable.from_pc(pres))


def test_heavy_group_adjoins_the_least_element_outside_the_parent(heavy729):
    assert_recorded_generators(heavy729)


def brute_orbit(ct, ids, conjugators):
    """Sorted ids of every conjugate x^-1 H x, x in `conjugators`, of the
    subgroup H with these ids: conjugate_ids(ids, x) for all x at once."""
    rows = np.sort(ct.conj()[np.ix_(list(conjugators), list(ids))], axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return {tuple(r) for r in rows[first].tolist()}


def assert_fusion_facts(ct, search_orders):
    """Fusion and the search's S-orbits against brute-force conjugation.

    Every subgroup's class, conjugated by every element of the group, is
    the set of positions sharing its class_rep, whose least position is
    class_rep; conj_to_rep carries the representative onto the subgroup.
    For each non-abelian class representative S below the whole group
    with order in `search_orders`, the orbit representatives the search
    takes among S's proper subgroups are the first member of each
    brute-force orbit under the generators of S. Returns the number of
    such S.
    """
    lat = ct.lattice()
    ids = [lat.ids(i) for i in lat.subgroups]
    pos = {h: i for i, h in enumerate(ids)}
    classes = {}
    for i in lat.subgroups:
        r = int(lat.class_rep[i])
        classes.setdefault(r, set()).add(i)
        assert ct.conjugate_ids(ids[r], lat.conj_to_rep(i)) == ids[i]
    for r, members in classes.items():
        brute = {pos[c] for c in brute_orbit(ct, ids[r], range(ct.n))}
        assert brute == members
        assert min(brute) == r
    masks = np.array([lat.mask(i) for i in lat.subgroups])
    checked = 0
    for r in classes:
        if lat.abelian[r] or r == len(ids) - 1 or lat.orders[r] not in search_orders:
            continue
        # the search's members: positions of the subgroups inside S, S last
        inside = np.flatnonzero(~masks[:, ~masks[r]].any(axis=1)).tolist()
        assert inside[-1] == r
        s_ids = table_closure(ct, lat.gens(r))
        seen, want = set(), []
        for j in inside[:-1]:
            if j not in seen:
                seen |= {pos[c] for c in brute_orbit(ct, ids[j], s_ids)}
                want.append(j)
        assert lat.orbit_reps(inside[:-1], lat.gens(r)).tolist() == want
        checked += 1
    return checked


@pytest.mark.parametrize("name", ["o16.pc", "o27.pc", "o32.pc"])
def test_fusion_and_search_orbits_match_brute_force(name):
    checked = 0
    for pres in load_fixture(name):
        checked += assert_fusion_facts(CayleyTable.from_pc(pres), range(pres.order))
    # proper subgroups of a group of order 27 have order at most 9, so are
    # abelian, and the search never takes their S-orbits
    assert (checked > 0) == (name != "o27.pc")


def test_heavy_group_fusion_and_search_orbits_match_brute_force(heavy729):
    # S-orbits on the maximal subgroups, where the search recurses first:
    # all 279 non-abelian proper class representatives take about 4 s
    assert assert_fusion_facts(heavy729, (243,)) == 39


def test_heavy_group_lattice_and_witness(heavy729):
    assert len(heavy729.lattice().subgroups) == 3820
    verdict = semiabelian_table(heavy729)
    assert verdict.flag
    assert validate_witness(heavy729, verdict.witness)


@pytest.mark.parametrize("name", ["o16.pc", "o27.pc"])
def test_climb_generators_and_normalisers_whole_catalogue(name):
    for pres in load_fixture(name):
        assert_climb_facts(pc_to_perm(pres))


def assert_normalised_by_subgroup_generators(ct):
    """For every subgroup S, the subgroups A <= S that the position maps of
    S's generators fix are those with conj[s, A] = A for every s in S,
    read off the membership masks."""
    lat = ct.lattice()
    masks = np.array([lat.mask(i) for i in lat.subgroups])
    conj = ct.conj()
    for s in lat.subgroups:
        inside = np.flatnonzero(~masks[:, ~masks[s]].any(axis=1))
        a = masks[inside]
        # image[r, i, y] = a[r, conj[x_i, y]], x_i the ith element of S;
        # A^x lies in A, so equals it, when this holds wherever a[r, y] does
        image = a[:, conj[list(lat.ids(s))]]
        brute = (image | ~a[:, None, :]).all(axis=(1, 2))
        assert lat.normalised_by(inside, lat.gens(s)).tolist() == inside[brute].tolist()


def test_normality_inside_each_subgroup_matches_brute_force():
    fixtures = [pres for pres in load_all_fixtures() if pres.order <= 32]
    assert len(fixtures) == 81
    for pres in fixtures:
        assert_normalised_by_subgroup_generators(CayleyTable.from_pc(pres))


def class_count(lat):
    """The number of conjugacy classes: positions that are their own class_rep."""
    return int((lat.class_rep == np.arange(len(lat.subgroups))).sum())


def normal_positions(ct):
    """The set of positions of the normal subgroups of ct's lattice: those
    that every table generator's position map fixes."""
    lat = ct.lattice()
    return set(lat.normalised_by(lat.subgroups, ct.gen_ids).tolist())


def normal_abelian(ct):
    """Positions of the normal abelian subgroups, ascending."""
    lat = ct.lattice()
    return [i for i in sorted(normal_positions(ct)) if lat.abelian[i]]


def test_d4_lattice_shape():
    g = d4_group()
    ct = CayleyTable.from_perm_group(g)
    lat = ct.lattice()
    assert len(lat.subgroups) == 10
    # three maximal subgroups, all of index 2
    maxi = lat.maximal()
    assert len(maxi) == 3
    assert (lat.orders[maxi] == 4).all()
    assert set(maxi.tolist()) <= normal_positions(ct)
    # eight conjugacy classes of subgroups
    assert class_count(lat) == 8
    # normal abelian subgroups: trivial, center, C4 and the two Klein fours
    na = normal_abelian(ct)
    assert len(na) == 5
    ref = {
        s
        for s in brute_normal_subgroups(g.elements(), 4)
        if is_abelian_elems(s)
    }
    assert {elems_of_ids(g.elements(), lat.ids(i)) for i in na} == ref


def test_q8_normal_abelian_is_five():
    pres = fixture_pres("o8.pc", 5)
    ct = CayleyTable.from_perm_group(pc_to_perm(pres))
    assert len(normal_abelian(ct)) == 5


def test_klein_four_lattice():
    g = PermGroup([Perm.from_cycles(4, [(1, 2)]), Perm.from_cycles(4, [(3, 4)])])
    ct = CayleyTable.from_perm_group(g)
    lat = ct.lattice()
    assert len(lat.subgroups) == 5
    assert class_count(lat) == 5
    assert normal_positions(ct) == set(lat.subgroups) and lat.abelian.all()


def test_cyclic_four_classes():
    g = PermGroup([Perm.from_cycles(4, [(1, 2, 3, 4)])])
    lat = CayleyTable.from_perm_group(g).lattice()
    assert len(lat.subgroups) == 3
    assert class_count(lat) == 3


def test_frattini_equals_maximal_intersection():
    # dual route: intersection of all maximal subgroups
    for name, index in FIXTURE_CASES:
        pres = fixture_pres(name, index)
        ct = CayleyTable.from_pc(pres)
        lat = ct.lattice()
        inter = frozenset(range(ct.n))
        for i in lat.maximal().tolist():
            inter &= frozenset(lat.ids(i))
        assert inter == frozenset(ct.frattini_ids())


def brute_maximal(lat):
    """Positions of the proper subgroups inside no other proper subgroup,
    read off the unpacked masks."""
    masks = np.array([lat.mask(i) for i in lat.subgroups])
    proper = [i for i in lat.subgroups if not masks[i].all()]
    return [
        i
        for i in proper
        if not any(j != i and not (masks[i] & ~masks[j]).any() for j in proper)
    ]


@pytest.mark.parametrize("l", [2, 3, 5])
def test_maximal_positions_match_brute_force(l):
    trivial = CayleyTable.from_perm_group(PermGroup([], degree=1)).lattice()
    assert trivial.maximal().tolist() == brute_maximal(trivial) == []
    cyclic = CayleyTable.from_perm_group(cyclic_group(l, 1)).lattice()
    assert cyclic.maximal().tolist() == brute_maximal(cyclic) == [0]
    ct = CayleyTable.from_perm_group(direct_product(cyclic_group(l, 1), cyclic_group(l, 1)))
    lat = ct.lattice()
    maxi = lat.maximal().tolist()
    # C_l x C_l: the l + 1 lines, between the trivial group and the whole
    assert maxi == brute_maximal(lat) == list(range(1, l + 2))
    assert all(len(lat.ids(i)) == l for i in maxi)


def test_lcs_orders_d4():
    ct = CayleyTable.from_perm_group(d4_group())
    assert ct.lcs_orders() == (8, 2, 1)
    assert ct.lower_exp_orders() == (8, 2, 1)
    assert ct.rank() == 2
    assert ct.derived_length() == 2


HEAVY = (
    "D(C(2,1),D(C(2,1),D(C(2,1),D(C(2,1),W(C(2,1),C(2,1))))))",
    "D(C(2,2),D(C(2,1),W(C(2,1),C(2,2))))",
    HEAVY_729,
)


def assert_positions_match_eager_oracle(ct):
    """Every per-position read of the lattice against values computed
    eagerly from the table: ids off the mask, abelian and normal by brute
    force on the ids, classes and conjugators by the eager fusion walk."""
    lat = ct.lattice()
    ids = [tuple(np.flatnonzero(lat.mask(i)).tolist()) for i in lat.subgroups]
    assert ids == sorted(ids, key=lambda x: (len(x), x))
    class_rep, conj_to_rep = eager_fusion(ct, ids)
    t, conj = ct.table, ct.conj()
    normal = normal_positions(ct)
    for i in lat.subgroups:
        h = np.asarray(ids[i])
        block = t[np.ix_(h, h)]
        gens = lat.gens(i)
        assert lat.ids(i) == ids[i]
        assert lat.orders[i] == len(h)
        assert lat.abelian[i] == bool((block == block.T).all())
        assert (i in normal) == bool(lat.mask(i)[conj[:, h]].all())
        assert ct.prime ** len(gens) == lat.orders[i] and set(gens) <= set(ids[i])
        assert (lat.class_rep[i], lat.conj_to_rep(i)) == (class_rep[i], conj_to_rep[i])


def assert_invariants_match_oracles(ct, g):
    """Table invariants against the all-pairs table oracle and against the
    permutation-group route of ops, on the group g tabulated as ct."""
    frattini, rk, dl, lcs, lower_exp = all_pairs_invariants(ct)
    assert ct.frattini_ids() == frattini
    assert ct.rank() == rk == rank(g)
    assert ct.derived_length() == dl == derived_length(g)
    assert ct.lcs_orders() == lcs
    assert ct.lower_exp_orders() == lower_exp


def test_views_and_invariants_match_oracles_on_every_fixture():
    fixtures = load_all_fixtures()
    assert len(fixtures) == 96
    for pres in fixtures:
        ct = CayleyTable.from_pc(pres)
        assert_positions_match_eager_oracle(ct)
        assert_invariants_match_oracles(ct, pc_to_perm(pres))


@pytest.mark.parametrize("text", HEAVY)
def test_heavy_group_views_and_invariants_match_oracles(text):
    g = eval_cert(parse_cert(text))
    ct = CayleyTable.from_perm_group(g)
    assert_positions_match_eager_oracle(ct)
    assert_invariants_match_oracles(ct, g)


def test_first_rows_keeps_first_occurrences_in_descending_byte_order():
    rows = np.array(
        [[1, 0], [3, 0], [1, 0], [0, 7], [3, 0], [2, 5], [0, 7]], dtype=np.uint8
    )
    kept, row_of = _first_rows(rows)
    # distinct rows [3, 0], [2, 5], [1, 0], [0, 7], first at 1, 5, 0, 3
    assert kept.tolist() == [1, 5, 0, 3]
    assert row_of.tolist() == [2, 0, 2, 3, 0, 1, 3]
    for r, i in enumerate(row_of.tolist()):
        assert kept[i] == rows.tolist().index(rows[r].tolist())


# permutation-group tables on which first-occurrence order within the
# layers differs from position order at 2 of 15, 6 of 23 and 16 of 129
# positions
REORDERED = ("D(C(2,2),C(2,2))", "D(C(3,2),C(3,2))", "W(C(2,1),C(2,2))")


@pytest.mark.parametrize("text", REORDERED)
def test_climb_emits_layers_in_position_order(text):
    ct = CayleyTable.from_perm_group(eval_cert(parse_cert(text)))
    assert_positions_match_eager_oracle(ct)
    assert_recorded_generators(ct)


def test_views_and_lattice_form_no_reference_cycle():
    ct = CayleyTable.from_pc(fixture_pres("o16.pc", 12))
    gc.disable()
    try:
        lat = ct.lattice()
        subs = lat.subgroups
        pos = len(subs) // 2
        assert lat.ids(pos) and lat.conj_to_rep(pos) >= 0
        assert semiabelian_table(ct).flag
        ref = weakref.ref(lat)
        # the table keeps its lattice alive, and nothing else does: not
        # the positions, the search or the conjugators walked
        del lat
        assert ref() is not None
        del ct
        assert ref() is None
        assert subs[pos] == pos
    finally:
        gc.enable()


def assert_position_maps_match_oracle(ct, others):
    """The generators' position maps, carried up the climb, and the maps
    composed for the elements `others` against conjugating every mask."""
    lat = ct.lattice()
    masks = np.array([lat.mask(i) for i in lat.subgroups])
    elements = tuple(dict.fromkeys(ct.gen_ids + tuple(others)))
    for g, pm in conjugation_position_maps(ct, masks, elements).items():
        assert lat._position_map(g).tolist() == pm.tolist(), g


def test_position_maps_match_oracle_on_every_fixture():
    for pres in load_all_fixtures():
        ct = CayleyTable.from_pc(pres)
        assert_position_maps_match_oracle(ct, range(ct.n))


@pytest.mark.parametrize("text", HEAVY)
def test_heavy_group_position_maps_match_oracle(text):
    ct = CayleyTable.from_perm_group(eval_cert(parse_cert(text)))
    # the last ids and a spread of others, none of them a generator
    others = set(range(ct.n - 4, ct.n)) | set(range(1, ct.n, ct.n // 7))
    assert_position_maps_match_oracle(ct, sorted(others - set(ct.gen_ids)))


def test_lattice_holds_no_unpacked_matrix():
    ct = CayleyTable.from_perm_group(eval_cert(parse_cert(HEAVY[0])))
    lat = ct.lattice()
    subs = lat.subgroups
    assert semiabelian_table(ct).flag
    assert all(lat.mask(i).shape == (ct.n,) for i in subs)
    assert lat.packed_masks.shape == (len(subs), ct.n // 8)
    for name, value in vars(lat).items():
        if isinstance(value, np.ndarray):
            assert not (value.dtype == bool and value.ndim == 2), name


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def elementary_covering_pairs(l, d):
    """Covering pairs of subspaces of GF(l)^d: a k-dimensional subspace lies
    in (l**(d-k) - 1)/(l - 1) subspaces of dimension k + 1."""
    return sum(
        gaussian_binomial(d, k, l) * (l ** (d - k) - 1) // (l - 1) for k in range(d + 1)
    )


@pytest.mark.parametrize(
    "l, d, total",
    [(2, 4, 67), (2, 5, 374), (3, 3, 28), (3, 4, 212), (5, 2, 8), (5, 3, 64), (7, 2, 10)],
)
def test_elementary_abelian_lattice_has_gaussian_binomial_counts(l, d, total):
    g = cyclic_group(l, 1)
    for _ in range(d - 1):
        g = direct_product(g, cyclic_group(l, 1))
    ct = CayleyTable.from_perm_group(g)
    lat = ct.lattice()
    by_order = [int((lat.orders == l**k).sum()) for k in range(d + 1)]
    assert by_order == [gaussian_binomial(d, k, l) for k in range(d + 1)]
    assert len(lat.subgroups) == sum(by_order) == total
    assert class_count(lat) == total and normal_positions(ct) == set(lat.subgroups)
    assert lat.builds == elementary_covering_pairs(l, d)


# the two extraspecial groups of order 125: exponent 5, and exponent 25
# with g2**5 = g3; keys there are minima over four powers
EXTRASPECIAL_125 = """
GROUP 125 3
PRIME 5
NGENS 3
COMM 2 1 = g3^1
END

GROUP 125 4
PRIME 5
NGENS 3
POWER 2 = g3^1
COMM 2 1 = g3^1
END
"""


@pytest.mark.parametrize("index, subgroups, pairs", [(3, 39, 73), (4, 14, 23)])
def test_extraspecial_125_lattice_matches_subset_closure(index, subgroups, pairs):
    (pres,) = [p for p in parse_pc_text(EXTRASPECIAL_125) if p.group_id[1] == index]
    ct = CayleyTable.from_pc(pres)
    lat = ct.lattice()
    assert {lat.ids(i) for i in lat.subgroups} == table_subgroups(ct)
    assert len(lat.subgroups) == subgroups
    assert lat.builds == covering_pairs(lat, 5) == pairs
    assert_recorded_generators(ct)


def assert_shared_climb_matches_own_climbs(make_tables):
    """One climb through fresh tables `make_tables()` gives each the
    lattice its own climb gives another fresh copy, field for field."""
    shared, own = make_tables(), make_tables()
    lats = lattices(shared)
    assert len(lats) == len(shared)
    for ct, lat, single in zip(shared, lats, own):
        assert ct.lattice() is lat
        ref = single.lattice()
        assert lat.packed_masks.tobytes() == ref.packed_masks.tobytes()
        assert lat.packed_masks.shape == ref.packed_masks.shape
        for name in ("orders", "abelian", "class_rep"):
            mine, theirs = getattr(lat, name), getattr(ref, name)
            assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist(), name
        assert [lat.gens(i) for i in lat.subgroups] == [ref.gens(i) for i in ref.subgroups]
        for g in ct.gen_ids:
            assert lat._position_map(g).tolist() == ref._position_map(g).tolist(), g
        assert lat.builds == ref.builds


def test_shared_climb_matches_own_climbs_on_the_fixtures_by_order():
    by_order = {}
    for pres in load_all_fixtures():
        by_order.setdefault(pres.order, []).append(pres)
    # every o32 and o81 table among them, each order in one climb
    assert len(by_order[32]) == 51 and len(by_order[81]) == 15
    for presentations in by_order.values():
        assert_shared_climb_matches_own_climbs(
            lambda: [CayleyTable.from_pc(p) for p in presentations]
        )


def test_shared_climb_matches_own_climbs_on_generator_counts_that_differ():
    # order 16: the dihedral group on 2, 3 and 4 generators, D4 x C2 on 3,
    # and the cyclic group on 1
    r = Perm.from_cycles(8, [(1, 2, 3, 4, 5, 6, 7, 8)])
    s = Perm.from_cycles(8, [(2, 8), (3, 7), (4, 6)])
    groups = [
        PermGroup([r, s]),
        PermGroup([r, s, r * s]),
        PermGroup([s, r * s, r * r, r]),
        eval_cert(parse_cert("D(C(2,1),W(C(2,1),C(2,1)))")),
        eval_cert(parse_cert("C(2,4)")),
    ]

    def make_tables():
        return [CayleyTable.from_perm_group(g) for g in groups]

    assert [len(ct.gen_ids) for ct in make_tables()] == [2, 3, 4, 3, 1]
    assert_shared_climb_matches_own_climbs(make_tables)


def test_shared_climb_matches_own_climbs_on_order_81_permutation_groups():
    # keys there are minima over two powers, read per table
    texts = (
        "W(C(3,1),C(3,1))",
        "D(C(3,2),C(3,2))",
        "D(C(3,1),C(3,3))",
        "D(C(3,1),D(C(3,1),D(C(3,1),C(3,1))))",
    )
    groups = [eval_cert(parse_cert(text)) for text in texts]
    assert {g.order for g in groups} == {81}
    assert_shared_climb_matches_own_climbs(
        lambda: [CayleyTable.from_perm_group(g) for g in groups]
    )


def test_shared_climb_keeps_equal_tables_apart():
    # 300 tables need a two-byte table key; equal masks of two tables
    # never merge
    dihedral, quaternion = (fixture_pres("o8.pc", i) for i in (4, 5))
    assert_shared_climb_matches_own_climbs(
        lambda: [CayleyTable.from_pc(p) for p in (dihedral, quaternion) * 150]
    )


def test_shared_climb_serves_memoised_lattices_and_climbs_each_table_once():
    pres = load_fixture("o16.pc")
    cts = [CayleyTable.from_pc(p) for p in pres[:3]]
    first = cts[0].lattice()
    lats = lattices([cts[0], cts[1], cts[1], cts[2]])
    assert lats[0] is first and lats[1] is lats[2] is cts[1].lattice()
    assert lattices([]) == []


def test_shared_climb_refuses_tables_of_two_orders():
    cts = [CayleyTable.from_pc(load_fixture(name)[0]) for name in ("o8.pc", "o16.pc")]
    with pytest.raises(PgfError, match="one order"):
        lattices(cts)
