"""The dataset count claims (criteria 3 and 8) on a temporary data
directory, and the census chunks and shared climbs of criteria 4 and 7.

The bundled order-16 catalogue stands in for a dataset: 14 groups, none
of them non-semiabelian. Every bucket runs through the resumable census,
whether it is one file, split over several or shares a file with another
order, so `--cache` applies.
"""

import os
import shutil

import pytest
from importlib import resources

from pgf import census, table, verify
from pgf.errors import PgfError
from pgf.census import cache_file_path

O16 = (2, 16, 14, 0)


def fixture_path(name):
    return str(resources.files("pgf").joinpath("data", name))


def count(data_dir, targets, cache_dir=None):
    ctx = verify._ClaimContext(str(data_dir), cache_dir, False)
    status, detail = verify._count_claim(ctx, targets)
    return status, detail, ctx.records


def data_dir_with(tmp_path, *names):
    data = tmp_path / "data"
    data.mkdir()
    for name in names:
        shutil.copy(fixture_path(name), data / name)
    return data


def test_count_claim_passes_on_a_matching_bucket(tmp_path):
    data = data_dir_with(tmp_path, "o16.pc")
    status, detail, records = count(data, [O16])
    assert (status, detail) == ("PASS", "order 16: 0 of 14 non-semiabelian")
    assert len(records) == 14


def test_count_claim_fails_naming_expected_and_got(tmp_path):
    data = data_dir_with(tmp_path, "o16.pc")
    status, detail, _ = count(data, [(2, 16, 15, 1)])
    assert status == "FAIL"
    assert detail == "order 16: expected 1 of 15, got 0 of 14"


def test_count_claim_skips_an_absent_bucket(tmp_path):
    data = data_dir_with(tmp_path, "o16.pc")
    status, detail, _ = count(data, [O16, (2, 64, 267, 10)])
    assert status == "SKIPPED"
    assert detail == (
        "datasets absent: 2^6 (see README); order 16: 0 of 14 non-semiabelian"
    )


def cache_lines(cache, prime, order):
    with open(cache_file_path(cache, prime, order)) as fh:
        return fh.read().splitlines()


def test_count_claim_joins_a_bucket_split_over_two_files(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    with open(fixture_path("o16.pc"), encoding="utf-8") as fh:
        text = fh.read()
    blocks = text.split("END\n")
    cut = len(blocks) // 2
    (data / "a.pc").write_text("END\n".join(blocks[:cut]) + "END\n")
    (data / "b.pc").write_text("END\n".join(blocks[cut:]))
    cache = str(tmp_path / "cache")
    status, detail, records = count(data, [O16], cache)
    assert (status, detail) == ("PASS", "order 16: 0 of 14 non-semiabelian")
    assert {r.provenance for r in records} == {"a.pc", "b.pc"}
    assert len(cache_lines(cache, 2, 16)) == 14
    monkeypatch.setattr(census, "classify_table", None)  # served only
    assert count(data, [O16], cache)[2] == records


def test_count_claim_classifies_a_file_of_two_orders_through_the_cache(
    tmp_path, monkeypatch
):
    data = tmp_path / "data"
    data.mkdir()
    mixed = ""
    for name in ("o8.pc", "o16.pc"):
        with open(fixture_path(name), encoding="utf-8") as fh:
            mixed += fh.read()
    (data / "mixed.pc").write_text(mixed)
    cache = str(tmp_path / "cache")
    status, detail, records = count(data, [O16, (2, 8, 5, 0)], cache)
    assert status == "PASS", detail
    assert len(cache_lines(cache, 2, 16)) == 14
    assert len(cache_lines(cache, 2, 8)) == 5
    monkeypatch.setattr(census, "classify_table", None)  # served only
    assert count(data, [O16, (2, 8, 5, 0)], cache)[2] == records


def test_count_claim_refuses_a_group_id_in_two_files(tmp_path):
    data = data_dir_with(tmp_path, "o16.pc")
    shutil.copy(fixture_path("o16.pc"), data / "again.pc")
    with pytest.raises(PgfError, match="a group id occurs more than once"):
        count(data, [O16])


def test_count_claim_caches_and_serves_on_rerun(tmp_path, monkeypatch):
    data = data_dir_with(tmp_path, "o16.pc")
    cache = str(tmp_path / "cache")
    status, _, first = count(data, [O16], cache)
    assert status == "PASS"
    path = cache_file_path(cache, 2, 16)
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 14

    calls = []
    real = census.classify_table

    def counted(pres, ct, spent):
        calls.append(pres.group_id)
        return real(pres, ct, spent)

    monkeypatch.setattr(census, "classify_table", counted)
    status, _, again = count(data, [O16], cache)
    assert status == "PASS"
    assert calls == []
    assert again == first  # served from the cache, timings included


def test_count_claim_ignores_a_same_named_file_in_the_working_directory(
    tmp_path, monkeypatch
):
    data = data_dir_with(tmp_path, "o16.pc")
    decoy = tmp_path / "cwd"
    decoy.mkdir()
    shutil.copy(fixture_path("o8.pc"), decoy / "o16.pc")
    monkeypatch.chdir(decoy)
    cache = str(tmp_path / "cache")
    status, detail, _ = count(data, [O16], cache)
    assert (status, detail) == ("PASS", "order 16: 0 of 14 non-semiabelian")
    assert os.listdir(cache) == ["census-p2-o16.jsonl"]


def test_small_orders_claim_classifies_by_buckets_and_fails_on_a_failure(
    tmp_path, monkeypatch
):
    from test_pc import INCONSISTENT_TEXT

    ctx = verify._ClaimContext(str(tmp_path), None, False)
    buckets = []
    real = census.classify_outcomes

    def recorded(presentations, jobs=1):
        buckets.append({(p.prime, p.order) for p in presentations})
        return real(presentations, jobs)

    monkeypatch.setattr(census, "classify_outcomes", recorded)
    status, detail = verify._claim_small_orders(ctx)
    assert (status, detail.split(" (")[0]) == ("PASS", "all 96 groups semiabelian")
    # one bucket per order and prime
    assert all(len(b) == 1 for b in buckets) and len(buckets) == 9

    (tmp_path / "bad.pc").write_text(INCONSISTENT_TEXT)
    status, detail = verify._claim_small_orders(ctx)
    assert status == "FAIL"
    assert detail == "group (8,9): inconsistent presentation: associativity fails at (4, 4, 4)"


def test_oracle_claim_climbs_each_order_once(monkeypatch):
    sizes = []
    real = table._climb

    def recorded(tables):
        sizes.append((tables[0].n, len(tables)))
        return real(tables)

    monkeypatch.setattr(table, "_climb", recorded)
    status, detail = verify._claim_oracle_agreement(verify._ClaimContext(None, None, False))
    assert status == "PASS", detail
    # the fixtures of order at most 64, one climb per order
    assert sorted(sizes) == [(2, 1), (3, 1), (4, 2), (8, 5), (9, 2), (16, 14), (27, 5), (32, 51)]
