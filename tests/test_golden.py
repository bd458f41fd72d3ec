"""Frozen outputs of the user-facing jobs.

The files under tests/golden were captured once from an earlier version of
the engine and are never regenerated: a refactor that changes a census
verdict or a printed witness fails here. Census reports are compared with
`elapsed_ms` zeroed. Semiabelian outputs are stored as the command line
followed by its stdout, with the bundled data directory stripped from
dataset targets. Witness chains are stored one line per bundled group as
`file#index flag A/H A/H ...`, each A and H a comma-separated list of
element ids in the `CayleyTable.from_pc` numbering. The corpus invariants
are stored one line per `certificate_corpus()` certificate as `text order
rank derived-orders lcs-orders lcs-factor-ranks frattini-order`, each
series comma-separated.
"""

import dataclasses
import os
from importlib import resources

import pytest

from pgf.census import emit_report, run_census
from pgf.cli import dispatch
from pgf.datasets import fixture_names, load_fixture
from pgf.family import certificate_corpus, eval_cert, semiabelian_table, serialize_cert
from pgf.ops import (
    derived_series,
    factor_ranks,
    frattini_subgroup,
    lower_central_series,
    rank,
)
from pgf.table import CayleyTable

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
DATA = str(resources.files("pgf").joinpath("data"))
PROMPT = "$ pgf semiabelian "


def read_golden(*parts):
    with open(os.path.join(GOLDEN, *parts), encoding="utf-8") as fh:
        return fh.read()


def semiabelian_cases():
    """(target, expected stdout) pairs from the frozen transcript."""
    cases = []
    for block in read_golden("semiabelian.txt").split(PROMPT)[1:]:
        target, _, out = block.partition("\n")
        cases.append((target, out))
    return cases


@pytest.mark.parametrize("name", fixture_names())
def test_census_csv_matches_golden(name):
    summary, records = run_census(os.path.join(DATA, name), jobs=1)
    assert summary.failures == ()
    zeroed = [dataclasses.replace(r, elapsed_ms=0) for r in records]
    assert emit_report(zeroed, "csv") == read_golden(
        "census", name.replace(".pc", ".csv")
    )


@pytest.mark.parametrize("target,expected", semiabelian_cases())
def test_semiabelian_stdout_matches_golden(target, expected, capsys):
    arg = os.path.join(DATA, target) if "#" in target else target
    assert dispatch(["semiabelian", arg]) == 0
    assert capsys.readouterr().out.replace(DATA + os.sep, "") == expected


def test_witness_chains_match_golden():
    def ids(t):
        return ",".join(str(x) for x in t)

    lines = []
    for name in fixture_names():
        for pres in load_fixture(name):
            v = semiabelian_table(CayleyTable.from_pc(pres))
            steps = [f"{ids(a)}/{ids(h)}" for a, h in v.witness or ()]
            flag = "true" if v.flag else "false"
            lines.append(" ".join([f"{name}#{pres.group_id[1]}", flag] + steps) + "\n")
    assert "".join(lines) == read_golden("witness.txt")


def test_corpus_invariants_match_golden():
    def join(xs):
        return ",".join(str(x) for x in xs)

    lines = []
    for c in certificate_corpus():
        g = eval_cert(c)
        lcs = lower_central_series(g)
        fields = [
            serialize_cert(c),
            g.order,
            rank(g),
            join(derived_series(g).orders),
            join(lcs.orders),
            join(factor_ranks(lcs)),
            frattini_subgroup(g).order,
        ]
        lines.append(" ".join(str(f) for f in fields) + "\n")
    assert len(lines) == 587
    assert "".join(lines) == read_golden("corpus_invariants.txt")
