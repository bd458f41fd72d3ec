"""Power-commutator presentations.

Expected products below are collected by hand from the relations and read
off the table that the census builds; the table and the generator columns
are compared with the collector in the test oracles, and the permutation
image is cross-checked with the naive closure reference.
"""

import time

import numpy as np
import pytest

from pgf.datasets import load_all_fixtures
from pgf.errors import PcFileError, PgfError
from pgf.pc import (
    PcPresentation,
    parse_pc_text,
    pc_to_perm,
    serialize_pc,
)
from pgf.table import CayleyTable
from pgf.verify import naive_closure

from oracles import (
    brute_pc_is_group,
    collected_columns,
    pc_elements,
    pc_id,
    pc_multiply,
)

C4_TEXT = """
# cyclic of order 4
GROUP 4 1
PRIME 2
NGENS 2
POWER 1 = g2^1
END
"""

D4_TEXT = """
GROUP 8 1
PRIME 2
NGENS 3
POWER 2 = g3^1
COMM 2 1 = g3^1
END
"""

Q8_TEXT = """
GROUP 8 2
PRIME 2
NGENS 3
POWER 1 = g3^1
POWER 2 = g3^1
COMM 2 1 = g3^1
END
"""

HEISENBERG27_TEXT = """
GROUP 27 1
PRIME 3
NGENS 3
COMM 2 1 = g3^1
END
"""

# g1^2 = g2 makes g2 a power of g1, so [g2,g1] = g3 forces g3 = 1: no
# consistent group satisfies these relations at order 8.
INCONSISTENT_TEXT = """
GROUP 8 9
PRIME 2
NGENS 3
POWER 1 = g2^1
POWER 2 = g3^1
COMM 2 1 = g3^1
END
"""


def parse_one(text):
    groups = parse_pc_text(text)
    assert len(groups) == 1
    return groups[0]


class Tabulated:
    """Products, inverses and powers of exponent vectors, read off
    CayleyTable.from_pc, the census route."""

    def __init__(self, text):
        self.pres = parse_one(text)
        self.ct = CayleyTable.from_pc(self.pres)
        self.els = pc_elements(self.pres)

    def mul(self, a, b):
        return self.els[self.ct.table[pc_id(self.pres, a), pc_id(self.pres, b)]]

    def inv(self, a):
        return self.els[self.ct.inv()[pc_id(self.pres, a)]]

    def pow(self, a, k):
        return self.els[self.ct.pow_map(k)[pc_id(self.pres, a)]]


def test_cyclic_four_square_of_g1_is_g2():
    g = Tabulated(C4_TEXT)
    assert g.pres.prime == 2 and g.pres.ngens == 2
    assert g.mul((1, 0), (1, 0)) == (0, 1)
    assert g.mul((1, 1), (1, 0)) == (0, 0)  # g1^3 * g1
    assert g.pow((1, 0), 4) == (0, 0)
    assert g.inv((1, 0)) == (1, 1)  # g1^-1 = g1^3 = g1 g2


def test_d4_collection_facts():
    g = Tabulated(D4_TEXT)
    # g2 g1 = g1 g2 g3
    assert g.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 1)
    # g1 g2 stays collected
    assert g.mul((1, 0, 0), (0, 1, 0)) == (1, 1, 0)
    # g2^2 = g3, so (g2 g3) g2 = g2^2 g3 = g3^2 = 1
    assert g.mul((0, 1, 1), (0, 1, 0)) == (0, 0, 0)
    # g1^2 collapses by its trivial power relation
    assert g.mul((1, 0, 0), (1, 0, 0)) == (0, 0, 0)


def test_q8_collection_facts():
    g = Tabulated(Q8_TEXT)
    assert g.mul((1, 0, 0), (1, 0, 0)) == (0, 0, 1)  # g1^2 = g3
    assert g.inv((1, 0, 0)) == (1, 0, 1)  # g1^-1 = g1 g3
    for vec in g.els:
        assert g.mul(vec, g.inv(vec)) == (0, 0, 0)
        assert g.mul(g.inv(vec), vec) == (0, 0, 0)


def test_heisenberg_inverse_and_orders():
    g = Tabulated(HEISENBERG27_TEXT)
    assert g.pres.order == 27
    for vec in g.els:
        assert g.mul(vec, g.inv(vec)) == (0, 0, 0)
        # exponent 3: every cube is trivial
        assert g.pow(vec, 3) == (0, 0, 0)
    # [g2,g1] = g3: g2 g1 = g1 g2 g3
    assert g.mul((0, 1, 0), (1, 0, 0)) == (1, 1, 1)


def test_elements_lex_order_identity_first():
    pres = parse_one(C4_TEXT)
    els = pc_elements(pres)
    assert els == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, v in enumerate(els):
        assert pc_id(pres, v) == i
    # the table numbers elements the same way: g1 = (1, 0) and g2 = (0, 1)
    assert CayleyTable.from_pc(pres).gen_ids == (2, 1)


def test_multiplication_table_matches_elementwise_products():
    for text in (C4_TEXT, D4_TEXT, Q8_TEXT, HEISENBERG27_TEXT):
        pres = parse_one(text)
        table = CayleyTable.from_pc(pres).table
        els = pc_elements(pres)
        for a in range(pres.order):
            for b in range(pres.order):
                assert table[a, b] == pc_id(pres, pc_multiply(pres, els[a], els[b]))


def test_columns_match_collection_on_every_fixture():
    fixtures = load_all_fixtures()
    assert len(fixtures) == 96
    for pres in fixtures + [PcPresentation(2, 0), PcPresentation(5, 1)]:
        cols = pres.gen_columns()
        assert cols.dtype == np.int32
        assert cols.tobytes() == collected_columns(pres).tobytes(), pres


def tabulates(pres) -> bool:
    """Whether CayleyTable.from_pc, the census route, accepts `pres`."""
    try:
        CayleyTable.from_pc(pres)
    except PgfError:
        return False
    return True


def test_consistency_accepts_real_groups():
    for text in (C4_TEXT, D4_TEXT, Q8_TEXT, HEISENBERG27_TEXT):
        assert tabulates(parse_one(text))


def test_consistency_rejects_collapsing_presentation():
    with pytest.raises(PgfError, match=r"group \(8, 9\): inconsistent presentation: "):
        CayleyTable.from_pc(parse_one(INCONSISTENT_TEXT))


def random_presentation(rng):
    """A random presentation of order 8 to 81; many are inconsistent."""
    # order 81 is rarer: the oracle collects all 6561 products one by one
    shapes = [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4)]
    weights = [0.15, 0.25, 0.2, 0.1, 0.22, 0.08]
    prime, ngens = shapes[rng.choice(len(shapes), p=weights)]

    def word(above):
        vec = rng.integers(0, prime, size=ngens)
        vec[:above] = 0
        return tuple(int(e) for e in vec) if rng.random() < 0.5 else None

    powers = [word(i) for i in range(1, ngens + 1)]
    comms = {}
    for j in range(2, ngens + 1):
        for i in range(1, j):
            w = word(j)
            if w:
                comms[(j, i)] = w
    return PcPresentation(prime, ngens, powers, comms)


def test_consistency_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(200):
        pres = random_presentation(rng)
        ok = tabulates(pres)
        assert ok == brute_pc_is_group(pres), pres
        if ok:
            assert pres.gen_columns().tobytes() == collected_columns(pres).tobytes(), pres
        verdicts.append(ok)
    # the sample exercises both outcomes
    assert 0 < sum(verdicts) < len(verdicts)


def test_pc_to_perm_d4():
    pres = parse_one(D4_TEXT)
    g = pc_to_perm(pres)
    assert g.degree == 8 and g.order == 8
    assert len(naive_closure(list(g.generators))) == 8
    orders = sorted(p.order() for p in g.elements())
    # D4 profile: identity, five involutions, two elements of order 4
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_pc_to_perm_q8():
    g = pc_to_perm(parse_one(Q8_TEXT))
    orders = sorted(p.order() for p in g.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_parse_rejects_index_order_violation():
    bad = """
GROUP 4 1
PRIME 2
NGENS 2
POWER 2 = g1^1
END
"""
    with pytest.raises(PcFileError) as err:
        parse_pc_text(bad)
    assert "index" in str(err.value)


def test_parse_rejects_bad_exponent():
    bad = """
GROUP 4 1
PRIME 2
NGENS 2
POWER 1 = g2^2
END
"""
    with pytest.raises(PcFileError):
        parse_pc_text(bad)


def test_parse_rejects_order_mismatch():
    bad = """
GROUP 8 1
PRIME 2
NGENS 2
END
"""
    with pytest.raises(PcFileError):
        parse_pc_text(bad)


@pytest.mark.parametrize("prime", [2, 3])
def test_parse_rejects_huge_ngens_without_forming_the_power(prime):
    # prime**ngens has millions of digits; the check compares logarithms
    # on the NGENS line, before any relation allocates an ngens-long vector
    bad = f"GROUP 16 1\nPRIME {prime}\nNGENS 30000000\nPOWER 1 = 1\nEND\n"
    t0 = time.perf_counter()
    with pytest.raises(PcFileError, match=f"prime\\*\\*ngens = {prime}\\*\\*30000000") as err:
        parse_pc_text(bad)
    assert time.perf_counter() - t0 < 1.0
    assert err.value.line == 3


def test_huge_prime_fails_the_size_limit_before_the_primality_test():
    # trial division on 2**61 - 1 would run for minutes
    t0 = time.perf_counter()
    with pytest.raises(PcFileError, match="PRIME exceeds the size limit 4096") as err:
        parse_pc_text("GROUP 2 1\nPRIME 2305843009213693951\nNGENS 1\nEND\n")
    assert err.value.line == 2
    with pytest.raises(ValueError, match="prime exceeds the size limit 4096"):
        PcPresentation(2305843009213693951, 1)
    assert time.perf_counter() - t0 < 1.0


def test_parse_rejects_duplicate_ids_and_missing_end():
    with pytest.raises(PcFileError):
        parse_pc_text(C4_TEXT + C4_TEXT)
    with pytest.raises(PcFileError):
        parse_pc_text("GROUP 2 1\nPRIME 2\nNGENS 1\n")


@pytest.mark.parametrize("order, index", [(2, 0), (2, -1), (0, 1), (-2, 1)])
def test_parse_rejects_group_id_below_one(order, index):
    with pytest.raises(PcFileError, match="must be at least 1") as err:
        parse_pc_text(f"# id below 1\nGROUP {order} {index}\nPRIME 2\nNGENS 1\nEND\n")
    assert err.value.line == 2


def test_parse_reports_line_numbers():
    bad = "GROUP 4 1\nPRIME 2\nNGENS 2\nPOWER 0 = g2^1\nEND\n"
    with pytest.raises(PcFileError) as err:
        parse_pc_text(bad)
    assert err.value.line == 4


def test_serialize_round_trip():
    for text in (C4_TEXT, D4_TEXT, Q8_TEXT, HEISENBERG27_TEXT):
        pres = parse_one(text)
        out = serialize_pc(pres)
        again = parse_one(out)
        assert again.prime == pres.prime
        assert again.ngens == pres.ngens
        assert again.powers == pres.powers
        assert again.comms == pres.comms
        assert serialize_pc(again) == out  # normalization is idempotent
    # a presentation without an id is written as index 1, which parses
    assert parse_one(serialize_pc(PcPresentation(2, 1))).group_id == (2, 1)


def test_mixed_blocks_parse_in_order():
    groups = parse_pc_text(D4_TEXT + "\n" + Q8_TEXT)
    assert [p.group_id for p in groups] == [(8, 1), (8, 2)]
