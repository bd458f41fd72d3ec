"""Ramified-prime counts and the lower-central-series upper bounds.

The frozen series data below was derived once by brute force, fully
independent of the production code: elements by naive closure, each
[G, term] by naive normal closure (commutate against every element of
the previous term, then close under products and conjugation), factor
ranks by power-subgroup indices. The helpers live in oracles.py so the
small cases are recomputed live; the larger cases reuse the frozen
numbers.
"""

import os

import pytest

from pgf.errors import InvalidCertificate, PgfError
from pgf.family import (
    Cyclic,
    DirectProduct,
    Wreath,
    cert_prime,
    certificate_corpus,
    declared_rank,
    eval_cert,
    parse_cert,
    serialize_cert,
)
from pgf.group import PermGroup
from pgf.ops import cyclic_group, rank
from pgf.perm import Perm
from pgf.ramification import (
    RANK_LOWER_BOUND_NOTE,
    RamReport,
    compare_bounds,
    min_ramified_primes,
    plans_bound,
)

from oracles import brute_lower_central_ranks

# cert text -> (order, rank, lcs factor ranks, plans ex_first, plans ex_last)
FROZEN = {
    "C(2,3)": (8, 1, (1,), 0, 1),
    "C(2,4)": (16, 1, (1,), 0, 1),
    "D(C(2,1),C(2,2))": (8, 2, (2,), 0, 2),
    "W(C(2,1),C(2,1))": (8, 2, (2, 1), 1, 2),
    "W(C(2,1),C(2,2))": (64, 2, (2, 1, 1, 1), 3, 4),
    "W(C(3,1),C(3,1))": (81, 2, (2, 1, 1), 2, 3),
    "D(C(2,1),W(C(2,1),C(2,1)))": (16, 3, (3, 1), 1, 3),
    "D(C(3,1),W(C(3,1),C(3,1)))": (243, 3, (3, 1, 1), 2, 4),
    "W(C(5,1),C(5,1))": (15625, 2, (2, 1, 1, 1, 1), 4, 5),
}


@pytest.mark.parametrize("text", sorted(FROZEN))
def test_plans_bound_frozen_values(text):
    order, rk, _, ex_first, ex_last = FROZEN[text]
    g = eval_cert(parse_cert(text))
    assert g.order == order
    assert rank(g) == rk
    assert plans_bound(g) == (ex_first, ex_last)


@pytest.mark.parametrize(
    "text", sorted(t for t in FROZEN if FROZEN[t][0] <= 256)
)
def test_plans_bound_matches_brute_force(text):
    c = parse_cert(text)
    g = eval_cert(c)
    ranks = brute_lower_central_ranks(list(g.generators), cert_prime(c), g.degree)
    assert tuple(ranks) == FROZEN[text][2]


def test_plans_bound_rejects_trivial_group():
    with pytest.raises(PgfError):
        plans_bound(PermGroup([Perm.identity(1)]))


def test_plans_excluding_first_zero_iff_abelian():
    for text, (_, _, ranks, ex_first, _) in FROZEN.items():
        abelian = len(ranks) == 1
        assert (ex_first == 0) == abelian, text


def test_plans_excluding_last_keeps_sole_abelian_factor():
    # a one-factor series has nothing below the top to drop, so the
    # second variant reports the full sum, which is the rank
    g = eval_cert(parse_cert("D(C(2,1),C(2,2))"))
    assert plans_bound(g) == (0, 2)
    h = eval_cert(parse_cert("C(3,2)"))
    assert plans_bound(h) == (0, 1)


def test_min_ramified_primes_cyclic():
    rep = min_ramified_primes("C(2,3)")
    assert rep.minimal_count_claim == 1
    assert rep.rank == 1
    assert rep.descriptor == "C(2,3)"
    assert rep.rank_lower_bound_note == RANK_LOWER_BOUND_NOTE
    assert "inertia" in rep.rank_lower_bound_note
    assert (rep.plans_bound_excluding_first, rep.plans_bound_excluding_last) == (0, 1)


def test_min_ramified_primes_wreath():
    rep = min_ramified_primes("W(C(2,1),C(2,1))")
    assert rep.minimal_count_claim == 2
    assert (rep.plans_bound_excluding_first, rep.plans_bound_excluding_last) == (1, 2)


def test_min_ramified_primes_direct_product_of_wreath():
    rep = min_ramified_primes("D(C(3,1),W(C(3,1),C(3,1)))")
    assert rep.minimal_count_claim == 3
    assert rep.rank == 3
    assert (rep.plans_bound_excluding_first, rep.plans_bound_excluding_last) == (2, 4)


def test_min_ramified_primes_accepts_parsed_certificates():
    c = parse_cert("W(C(2,1),C(2,1))")
    assert min_ramified_primes(c) == min_ramified_primes("W(C(2,1),C(2,1))")


def test_min_ramified_claim_agrees_three_ways():
    for c in certificate_corpus(max_constructors=2):
        rep = min_ramified_primes(c)
        g = eval_cert(c)
        assert rep.minimal_count_claim == declared_rank(c) == rank(g)


def test_min_ramified_primes_rejects_bad_certificate():
    with pytest.raises(InvalidCertificate):
        min_ramified_primes("C(6,1)")


def test_report_constructor_rejects_claim_rank_mismatch():
    with pytest.raises(PgfError):
        RamReport("C(2,1)", 1, RANK_LOWER_BOUND_NOTE, 0, 1, 2)


def test_uncertified_group_report():
    # a bare group without a certificate still gets rank and both bounds
    g = cyclic_group(3, 2)
    assert rank(g) == 1
    assert plans_bound(g) == (0, 1)


def test_report_json_dict_round_trips_by_keys():
    rep = min_ramified_primes("W(C(2,1),C(2,1))")
    d = rep.to_json_dict()
    assert list(d) == [
        "descriptor",
        "rank",
        "rank_lower_bound_note",
        "plans_ex_first",
        "plans_ex_last",
        "minimal_count_claim",
    ]
    assert d["rank"] == 2 and d["minimal_count_claim"] == 2


def test_report_text_mentions_every_number():
    rep = min_ramified_primes("W(C(3,1),C(3,1))")
    blob = rep.text()
    for needle in ("W(C(3,1),C(3,1))", "rank", "2", "3"):
        assert needle in blob


def _rows(table):
    lines = [ln for ln in table.splitlines() if ln.strip()]
    header = lines[0].split()
    return header, [ln.split() for ln in lines[1:]]


def test_compare_bounds_single_certificate():
    header, rows = _rows(compare_bounds("W(C(5,1),C(5,1))"))
    assert header == [
        "certificate",
        "order",
        "rank",
        "plans_ex_first",
        "plans_ex_last",
        "gap_first",
        "gap_last",
    ]
    assert len(rows) == 1
    row = rows[0]
    assert row[0] == "W(C(5,1),C(5,1))"
    assert row[1:] == ["15625", "2", "4", "5", "2", "3"]


def test_compare_bounds_both_variants_exceed_rank_for_large_wreath():
    rep = min_ramified_primes("W(C(5,1),C(5,1))")
    assert rep.plans_bound_excluding_first > rep.rank
    assert rep.plans_bound_excluding_last > rep.rank


def test_compare_bounds_corpus_aggregation():
    certs = certificate_corpus(max_constructors=2)
    table = compare_bounds(certs)
    # frozen from an earlier version; never regenerated
    golden = os.path.join(os.path.dirname(__file__), "golden", "bounds_corpus.txt")
    with open(golden, encoding="utf-8") as fh:
        assert table + "\n" == fh.read()
    header, rows = _rows(table)
    assert len(rows) == len(certs)
    by_text = {row[0]: row for row in rows}
    for c in certs:
        row = by_text[_text_of(c)]
        order, rk, exf, exl, gapf, gapl = (int(v) for v in row[1:])
        assert gapf == exf - rk
        assert gapl == exl - rk
        assert gapl >= 0
        structurally_abelian = _no_wreath(c)
        if structurally_abelian:
            assert exf == 0 and exl == rk
        if isinstance(c, Wreath):
            assert exf > 0


def _text_of(c):
    return serialize_cert(c)


def _no_wreath(c):
    if isinstance(c, Cyclic):
        return True
    if isinstance(c, DirectProduct):
        return _no_wreath(c.left) and _no_wreath(c.right)
    return False


def test_compare_bounds_rejects_invalid_certificate():
    with pytest.raises(InvalidCertificate):
        compare_bounds("C(6,1)")


def test_compare_bounds_table_is_deterministic():
    once = compare_bounds(["C(2,1)", "W(C(2,1),C(2,1))"])
    again = compare_bounds(["C(2,1)", "W(C(2,1),C(2,1))"])
    assert once == again
