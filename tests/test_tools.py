"""Tests for the catalogue generator in tools/.

The generator rebuilds a bundled catalogue from the one below it, so
running it on each bundled source (order 16 from order 8, 27 from 9, 32
from 16, 81 from 27) must reproduce the bundled catalogue up to
numbering. The tool's key takes equal values on isomorphic groups; it is
pairwise distinct over the bundled catalogue, so equal key multisets mean
the same isomorphism types.

The enumeration is also checked on its own: completeness needs every tail
vector, yet at prime 3 tails in {0, 1} alone happen to reach all groups of
order 27 and 81, so the rebuild would not notice a lost tail value.
"""

import importlib.util
import itertools
import os
from collections import Counter

import pytest

from pgf.datasets import load_fixture
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


@pytest.mark.parametrize("source", ["o8.pc", "o9.pc"])
def test_central_extensions_try_every_tail(source):
    """Each base group gets a central z of order p and every tail vector on
    its n power and n(n-1)/2 commutator relations, in product order."""
    tool = load_tool()
    for base in load_fixture(source):
        p, n = base.prime, base.ngens
        pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
        relations = [w or (0,) * n for w in base.powers]
        relations += [base.comms.get(pair, (0,) * n) for pair in pairs]
        tails = []
        for ext in tool.central_extensions(base):
            assert ext.ngens == n + 1 and ext.powers[n] is None  # z^p = 1
            assert all(j <= n for j, _ in ext.comms)  # z is central
            words = [w or (0,) * (n + 1) for w in ext.powers[:n]]
            words += [ext.comms.get(pair, (0,) * (n + 1)) for pair in pairs]
            assert [w[:n] for w in words] == relations
            tails.append(tuple(w[n] for w in words))
        assert tails == list(itertools.product(range(p), repeat=len(relations)))


@pytest.mark.parametrize(
    "source,prime,classes,bundled",
    [
        ("o8.pc", 2, 14, "o16.pc"),
        ("o9.pc", 3, 5, "o27.pc"),
        ("o16.pc", 2, 51, "o32.pc"),
        ("o27.pc", 3, 15, "o81.pc"),
    ],
)
def test_generator_rebuilds_bundled_catalogue(source, prime, classes, bundled):
    tool = load_tool()
    found = tool.classify(source, prime, classes)
    order = found[0][1].order
    text = tool.export(found, order, prime)
    rebuilt = parse_pc_text(text, source=bundled)
    assert [p.group_id for p in rebuilt] == [(order, i) for i in range(1, classes + 1)]

    def keys(presentations):
        return Counter(tool.fingerprint(CayleyTable.from_pc(p)) for p in presentations)

    want = keys(load_fixture(bundled))
    assert len(want) == classes  # the key separates every bundled group
    assert keys(rebuilt) == want
