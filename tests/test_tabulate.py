"""Tabulation from generator columns, against the routes it replaced.

`PermGroup.columns` finds products among the sorted element matrix, and
one filler builds every Cayley table from generator columns. The oracles
below are the earlier constructions, kept here only as references: a dict
from element to position, wreath generators built point by point, the
permutation dynamic program over that dict, and the presentation dynamic
program over normal forms.
"""

import numpy as np
import pytest

from pgf import table
from pgf.datasets import load_all_fixtures, load_fixture
from pgf.errors import CapExceeded, PgfError
from pgf.family import Wreath, certificate_corpus, eval_cert
from pgf.group import PermGroup
from pgf.ops import cyclic_group, wreath_regular
from pgf.pc import PcPresentation
from pgf.perm import Perm
from pgf.table import CayleyTable, tabulate


def corpus_groups(max_order):
    return [g for g in map(eval_cert, certificate_corpus()) if g.order <= max_order]


def index_of(g):
    return {p: i for i, p in enumerate(g.elements())}


def loop_wreath_generators(inner, outer):
    d, m = inner.degree, outer.order
    degree = d * m
    index = index_of(outer)
    gens = []
    for p in inner.generators:
        img = list(range(1, degree + 1))
        for j in range(1, d + 1):
            img[j - 1] = p(j)
        gens.append(Perm(img))
    for t in outer.generators:
        img = [0] * degree
        for b, x in enumerate(outer.elements()):
            tb = index[x * t]
            for j in range(1, d + 1):
                img[b * d + j - 1] = tb * d + j
        gens.append(Perm(img))
    return gens


def dict_table(g):
    """(table, gen_ids) by the dict dynamic program over the right Cayley
    graph."""
    els, index = g.elements(), index_of(g)
    n = len(els)
    gen_ids = tuple(index[p] for p in g.generators)
    gen_cols = {}
    for j, p in zip(gen_ids, g.generators):
        gen_cols[j] = np.array([index[x * p] for x in els], dtype=np.int32)
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n)
    done, frontier = {0}, [0]
    while frontier:
        y = frontier.pop()
        for j, col in gen_cols.items():
            z = int(col[y])
            if z not in done:
                table[:, z] = col[table[:, y]]
                done.add(z)
                frontier.append(z)
    assert len(done) == n
    return table, gen_ids


def normal_form_table(pres):
    """The presentation's table by dynamic programming over normal forms: if
    b ends in g_t then column(b) = column(g_t) after column(b without g_t)."""
    N, p, n = pres.order, pres.prime, pres.ngens
    table = np.empty((N, N), dtype=np.int32)
    table[:, 0] = np.arange(N)
    cols = pres.gen_columns()
    for y in range(1, N):
        tmp, pos, step = y, n - 1, 1
        while tmp % p == 0:
            tmp //= p
            pos -= 1
            step *= p
        table[:, y] = cols[pos][table[:, y - step]]
    return table


def test_columns_match_a_dict_lookup_on_the_corpus():
    # points past 255 need more than a row's low bytes to sort
    groups = corpus_groups(4096) + [cyclic_group(2, 10), cyclic_group(3, 6)]
    assert len(groups) > 300
    for g in groups:
        index = index_of(g)
        want = [[index[x * p] for x in g.elements()] for p in g.generators]
        cols = g.columns(g.generators)
        assert cols.dtype == np.int32
        assert cols.shape == (len(g.generators), g.order)
        assert cols.tolist() == want


def test_columns_raise_on_a_product_outside_the_group():
    g = PermGroup([Perm.from_cycles(4, [(1, 2)]), Perm.from_cycles(4, [(3, 4)])])
    outside = Perm.from_cycles(4, [(1, 3)])
    with pytest.raises(PgfError, match="outside the group"):
        g.columns([g.generators[0], outside])


def test_wreath_generators_match_the_loop_construction():
    wreaths = [c for c in certificate_corpus() if isinstance(c, Wreath)]
    assert len(wreaths) == 98
    for c in wreaths:
        inner, outer = eval_cert(c.inner), eval_cert(c.outer)
        got = wreath_regular(inner, outer).generators
        want = [p for p in loop_wreath_generators(inner, outer) if not p.is_identity()]
        assert [p.img0.tobytes() for p in got] == [p.img0.tobytes() for p in want]
        assert all(p.img0.dtype == np.int32 for p in got)


def test_perm_tables_match_the_dict_dynamic_program():
    groups = corpus_groups(1024)
    assert len(groups) > 300
    for g in groups:
        ct = CayleyTable.from_perm_group(g)
        table, gen_ids = dict_table(g)
        assert ct.table.tobytes() == table.tobytes()
        assert ct.gen_ids == gen_ids


def test_pc_generators_that_miss_an_element_are_a_defect(monkeypatch):
    pres = load_fixture("o4.pc")[0]
    stuck = np.tile(np.arange(pres.order, dtype=np.int32), (pres.ngens, 1))
    monkeypatch.setattr(type(pres), "gen_columns", lambda self: stuck)
    with pytest.raises(
        PgfError,
        match="inconsistent presentation: the generators do not reach every element",
    ):
        CayleyTable.from_pc(pres)


def test_pc_tables_match_the_normal_form_dynamic_program():
    fixtures = load_all_fixtures()
    assert len(fixtures) == 96
    for pres in fixtures:
        ct = CayleyTable.from_pc(pres)
        assert ct.table.tobytes() == normal_form_table(pres).tobytes()
        assert ct.gen_ids == tuple(pres.prime**k for k in reversed(range(pres.ngens)))


def test_batch_tables_equal_one_presentation_tables():
    """tabulate, one batch per shape, gives each fixture (the two
    catalogues among them) the table and generators from_pc gives it."""
    shapes = {}
    for pres in load_all_fixtures():
        shapes.setdefault((pres.prime, pres.ngens), []).append(pres)
    assert sum(map(len, shapes.values())) == 96 and len(shapes[(2, 5)]) == 51
    for batch in shapes.values():
        made = tabulate(batch)
        assert len(made) == len(batch)
        for pres, ct in zip(batch, made):
            one = CayleyTable.from_pc(pres)
            assert ct.table.dtype == np.int32 and ct.table.flags.c_contiguous
            assert ct.table.tobytes() == one.table.tobytes()
            assert ct.gen_ids == one.gen_ids


@pytest.mark.parametrize("prime, ngens", [(2, 0), (5, 0), (2, 1), (7, 1)])
def test_batch_of_trivial_or_prime_order_presentations(prime, ngens):
    order = prime**ngens
    batch = [PcPresentation(prime, ngens, group_id=(order, i)) for i in (1, 2, 3)]
    for ct in tabulate(batch) + [CayleyTable.from_pc(batch[0])]:
        # the id of g^e is e, so the table adds exponents mod the order
        assert ct.table.tolist() == [[(a + b) % order for b in range(order)] for a in range(order)]
        assert ct.gen_ids == ((1,) if ngens else ())


def test_batch_refuses_mixed_shapes_and_fails_each_presentation_over_the_cap():
    assert tabulate([]) == []
    with pytest.raises(PgfError, match="share one prime and generator count"):
        tabulate([PcPresentation(2, 2), PcPresentation(2, 3)])
    big = [PcPresentation(2, 11, group_id=(2048, i)) for i in (1, 2)]
    made = tabulate(big)
    assert [type(e) for e in made] == [CapExceeded, CapExceeded]
    assert made[0] is not made[1]
    assert all(str(e) == "order 2048 exceeds table cap 1024" for e in made)


def test_batch_blocks_keep_within_the_cell_budget(monkeypatch):
    """A batch larger than a block is tabulated a block at a time, with
    the same tables."""
    batch = load_fixture("o32.pc")
    want = [ct.table.tobytes() for ct in tabulate(batch)]
    monkeypatch.setattr(table, "_TABULATE_CELLS", 4 * 32 * 32)
    blocks = []
    real = table._pc_tables

    def recorded(presentations, cols):
        blocks.append(len(presentations))
        return real(presentations, cols)

    monkeypatch.setattr(table, "_pc_tables", recorded)
    assert [ct.table.tobytes() for ct in tabulate(batch)] == want
    assert blocks == [4] * 12 + [3]
