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

from pgf.datasets import load_all_fixtures, load_fixture
from pgf.errors import PgfError
from pgf.family import Wreath, certificate_corpus, eval_cert
from pgf.group import PermGroup
from pgf.ops import cyclic_group, wreath_regular
from pgf.perm import Perm
from pgf.table import CayleyTable


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
