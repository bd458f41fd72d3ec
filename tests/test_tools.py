"""Smoke test for the catalogue generator in tools/.

The generator rebuilds a bundled catalogue from the one below it, so
running it one level down (order 16 from order 8, order 27 from order 9)
must reproduce the bundled orders 16 and 27 up to numbering. Groups are
compared by (rank, derived length, subgroup count, semiabelian).
"""

import importlib.util
import os
from collections import Counter

import pytest

from pgf.datasets import load_fixture
from pgf.family import semiabelian_table
from pgf.pc import parse_pc_text
from pgf.table import CayleyTable

TOOL = os.path.join(
    os.path.dirname(__file__), "..", "tools", "generate_small_groups.py"
)


def load_tool():
    spec = importlib.util.spec_from_file_location("generate_small_groups", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def profile(presentations):
    out = Counter()
    for pres in presentations:
        ct = CayleyTable.from_pc(pres)
        out[
            (
                ct.rank(),
                ct.derived_length(),
                len(ct.lattice().subgroups),
                semiabelian_table(ct).flag,
            )
        ] += 1
    return out


@pytest.mark.parametrize(
    "source,prime,classes,bundled",
    [("o8.pc", 2, 14, "o16.pc"), ("o9.pc", 3, 5, "o27.pc")],
)
def test_generator_rebuilds_bundled_catalogue(source, prime, classes, bundled):
    tool = load_tool()
    tables = tool.classify(source, prime, classes)
    order = tables[0].n
    text = tool.export(tables, order, prime)
    rebuilt = parse_pc_text(text, source=bundled)
    assert [p.group_id for p in rebuilt] == [(order, i) for i in range(1, classes + 1)]
    assert profile(rebuilt) == profile(load_fixture(bundled))
