"""Sanity of the bundled presentation files.

The group counts per order are the classical catalogue sizes. Distinctness
of the presentations is checked two ways: invariant profiles computed by
the brute-force oracles on the permutation images for the hand-written
files, and a stronger table-based profile (adding subgroup lattice
statistics and power-map fiber sizes) for every file including the
generated order-32 and order-81 catalogues. Both are weaker than an
isomorphism test but catch duplicated or collapsed fixtures. Full
isomorphism separation of the generated catalogues is checked in
tests/test_tools.py: the generator's invariant key, equal on isomorphic
groups, is pairwise distinct over each of them.
"""

from collections import Counter

import numpy as np
import pytest

from oracles import (
    brute_center,
    brute_commutator_subgroup,
    brute_frattini,
    brute_rank,
    brute_derived_length,
    is_abelian_elems,
    order_histogram,
)
from pgf.datasets import fixture_names, load_all_fixtures, load_fixture
from pgf.pc import pc_to_perm
from pgf.table import CayleyTable

EXPECTED_COUNTS = {
    "o2.pc": (2, 2, 1),
    "o4.pc": (2, 4, 2),
    "o8.pc": (2, 8, 5),
    "o16.pc": (2, 16, 14),
    "o32.pc": (2, 32, 51),
    "o3.pc": (3, 3, 1),
    "o9.pc": (3, 9, 2),
    "o27.pc": (3, 27, 5),
    "o81.pc": (3, 81, 15),
}

HAND_WRITTEN = ("o2.pc", "o3.pc", "o4.pc", "o8.pc", "o9.pc", "o16.pc", "o27.pc")


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_counts_and_uniformity(name):
    groups = load_fixture(name)
    prime, order, count = EXPECTED_COUNTS[name]
    assert len(groups) == count
    assert all(p.prime == prime and p.order == order for p in groups)
    assert len({p.group_id for p in groups}) == count


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_consistency(name):
    for pres in load_fixture(name):
        CayleyTable.from_pc(pres)  # raises PgfError naming any defect


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_perm_image_order(name):
    for pres in load_fixture(name):
        g = pc_to_perm(pres)
        assert g.order == pres.order, pres.group_id


def _profile(pres):
    g = pc_to_perm(pres)
    els = g.elements()
    l = pres.prime
    return (
        is_abelian_elems(els),
        order_histogram(els),
        len(brute_center(els)),
        order_histogram(brute_center(els)),
        len(brute_commutator_subgroup(els, g.degree)),
        len(brute_frattini(els, l, g.degree)),
        brute_rank(els, l, g.degree),
        brute_derived_length(els, g.degree),
    )


@pytest.mark.parametrize("name", HAND_WRITTEN)
def test_fixture_profiles_pairwise_distinct(name):
    groups = load_fixture(name)
    profiles = {}
    for pres in groups:
        prof = _profile(pres)
        assert prof not in profiles, (
            f"{pres.group_id} and {profiles[prof]} share the invariant "
            f"profile {prof}; fixtures are not pairwise distinct"
        )
        profiles[prof] = pres.group_id


def _table_profile(ct):
    orders = ct.element_orders()
    conj = ct.conj()
    powers = ct.pow_map(ct.prime)
    center = ct.center_ids()
    lat = ct.lattice()
    normal = set(lat.normalised_by(lat.subgroups, ct.gen_ids).tolist())
    return (
        ct.n,
        tuple(sorted(Counter(orders.tolist()).items())),
        tuple(sorted(len(np.unique(conj[:, x])) for x in range(ct.n))),
        tuple(sorted((int(orders[x]), int(orders[powers[x]])) for x in range(ct.n))),
        tuple(sorted(Counter(Counter(powers.tolist()).values()).items())),
        len(center),
        len(ct.frattini_ids()),
        ct.rank(),
        ct.derived_length(),
        ct.lcs_orders(),
        ct.lower_exp_orders(),
        tuple(sorted(Counter(
            (int(lat.orders[i]), bool(lat.abelian[i]), i in normal)
            for i in lat.subgroups
        ).items())),
    )


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_table_profiles_pairwise_distinct(name):
    profiles = {}
    for pres in load_fixture(name):
        prof = _table_profile(CayleyTable.from_pc(pres))
        assert prof not in profiles, (
            f"{pres.group_id} and {profiles[prof]} share a table profile"
        )
        profiles[prof] = pres.group_id


def test_load_all_fixtures_total():
    assert len(load_all_fixtures()) == sum(
        c for (_, _, c) in EXPECTED_COUNTS.values()
    )
