"""Batch classification pipeline: records, cache resume, report emission.

Per-record rank and derived length are cross-checked live against the
brute-force oracles, so the pipeline cannot drift from the reference
computations without a failure here.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import concurrent.futures
from concurrent.futures import Future

import pytest
from importlib import resources

from pgf import census
from pgf.census import (
    CensusRecord,
    CensusSummary,
    cache_file_path,
    classify_table,
    emit_report,
    run_census,
)
from pgf.datasets import load_fixture
from pgf.cli import dispatch
from pgf.errors import PcFileError, PgfError
from pgf.pc import parse_pc_file, pc_to_perm, serialize_pc
from pgf import table

from oracles import brute_derived_length, brute_rank
from test_pc import INCONSISTENT_TEXT


def fixture_path(name):
    return str(resources.files("pgf").joinpath("data", name))


def zeroed(records):
    return [dataclasses.replace(r, elapsed_ms=0) for r in records]


def o8_pres(index):
    return next(p for p in load_fixture("o8.pc") if p.group_id == (8, index))


def cache_line(rec, pres=None, schema=census.CACHE_SCHEMA):
    """A cache line for `rec` of the given schema (none if None), stamped
    with the digest of `pres` if given."""
    d = rec.to_json_dict()
    if schema is not None:
        d["schema"] = schema
    if pres is not None:
        text = serialize_pc(pres).encode("utf-8")
        d["pc_sha256"] = hashlib.sha256(text).hexdigest()
    return json.dumps(d) + "\n"


def record_dicts(lines):
    """Record fields of cache lines, without the presentation digest and
    the schema."""
    out = []
    for line in lines:
        d = json.loads(line)
        del d["pc_sha256"], d["schema"]
        out.append(d)
    return out


# ----- single-record classification ------------------------------------------


def test_classify_record_fields():
    pres = [p for p in load_fixture("o8.pc") if p.group_id[1] == 4][0]
    rec = classify_table(pres, table.CayleyTable.from_pc(pres))
    assert rec.group_id == (8, 4)
    assert "o8.pc" in rec.provenance
    assert rec.screen in ("definitely_not_member", "inconclusive")
    assert isinstance(rec.elapsed_ms, int) and rec.elapsed_ms >= 0
    assert rec.semiabelian is True


def test_classification_agrees_with_brute_force_on_order8():
    for pres in load_fixture("o8.pc"):
        rec = classify_table(pres, table.CayleyTable.from_pc(pres))
        elems = set(pc_to_perm(pres).elements())
        degree = next(iter(elems)).degree
        assert rec.rank == brute_rank(elems, 2, degree)
        assert rec.derived_length == brute_derived_length(elems, degree)


def test_classify_bucket_rejects_an_empty_bucket():
    with pytest.raises(PgfError, match="no presentations"):
        census.classify_bucket([])


def test_record_invariants_enforced_at_construction():
    with pytest.raises(PgfError):
        CensusRecord((8, 1), "x", 1, 3, True, "inconclusive", 0)
    with pytest.raises(PgfError):
        CensusRecord((8, 1), "x", 1, 3, False, "inconclusive", 0)
    with pytest.raises(PgfError):
        CensusRecord((8, 1), "x", 2, 1, False, "definitely_not_member", 0)
    with pytest.raises(PgfError):
        CensusRecord((8, 1), "x", 1, 1, True, "inconclusive", -5)


def test_record_json_round_trip():
    rec = CensusRecord((16, 3), "o16.pc", 2, 2, True, "inconclusive", 17)
    again = CensusRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
    assert again == rec


# ----- run_census on the bundled order-8 dataset ------------------------------


def test_run_census_order8(tmp_path):
    summary, records = run_census(fixture_path("o8.pc"), jobs=1)
    assert isinstance(summary, CensusSummary)
    assert summary.order == 8
    assert summary.total == 5
    assert summary.non_semiabelian == 0
    assert summary.failures == ()
    assert [r.group_id for r in records] == [(8, i) for i in range(1, 6)]
    assert all(r.semiabelian for r in records)


def test_run_census_is_deterministic_modulo_timing():
    _, first = run_census(fixture_path("o8.pc"), jobs=1)
    _, second = run_census(fixture_path("o8.pc"), jobs=1)
    assert zeroed(first) == zeroed(second)


def test_run_census_parallel_matches_serial():
    _, serial = run_census(fixture_path("o8.pc"), jobs=1)
    _, parallel = run_census(fixture_path("o8.pc"), jobs=2)
    assert zeroed(serial) == zeroed(parallel)


# ----- chunks: one shared climb, groups finished one at a time -----------------


def one_by_one(path):
    """Each group's record from its own table, outside any chunk."""
    return sorted(
        (classify_table(p, table.CayleyTable.from_pc(p)) for p in parse_pc_file(path)),
        key=lambda r: r.group_id,
    )


@pytest.mark.parametrize("name", ["o32.pc", "o81.pc"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_chunk_records_equal_one_group_records(name, jobs):
    _, records = run_census(fixture_path(name), jobs=jobs)
    assert zeroed(records) == zeroed(one_by_one(fixture_path(name)))


@pytest.fixture
def climbs(monkeypatch):
    """The number of tables of each shared climb the census asks for."""
    sizes = []
    real = census.lattices

    def recorded(tables):
        sizes.append(len(tables))
        return real(tables)

    monkeypatch.setattr(census, "lattices", recorded)
    return sizes


def test_a_chunk_climbs_its_non_abelian_tables_once(climbs):
    # 44 of the 51 groups of order 32 are not abelian, 10 of the 15 of
    # order 81; each catalogue fits in one chunk
    run_census(fixture_path("o32.pc"), jobs=1)
    run_census(fixture_path("o81.pc"), jobs=1)
    assert climbs == [44, 10]


def test_chunks_keep_within_their_cell_budget(climbs, monkeypatch):
    monkeypatch.setattr(census, "_CHUNK_CELLS", 4 * 81 * 81)
    _, records = run_census(fixture_path("o81.pc"), jobs=1)
    assert len(climbs) == 4 and sum(climbs) == 10
    assert zeroed(records) == zeroed(one_by_one(fixture_path("o81.pc")))


@pytest.mark.parametrize("jobs, sizes", [(1, [5]), (2, [3, 2]), (4, [2, 1, 1, 1]), (9, [1] * 5)])
def test_chunks_are_at_least_the_jobs(jobs, sizes):
    todo = load_fixture("o8.pc")
    chunks = census._chunks(todo, jobs)
    assert [len(c) for c in chunks] == sizes
    assert [p for c in chunks for p in c] == todo


def test_a_presentation_that_fails_to_tabulate_fails_alone(tmp_path, climbs):
    fresh = zeroed(one_by_one(fixture_path("o8.pc")))
    # the inconsistent presentation first, between consistent ones, or last
    for at in (0, 2, 5):
        blocks = [serialize_pc(p) for p in load_fixture("o8.pc")]
        blocks.insert(at, INCONSISTENT_TEXT)
        path = tmp_path / "o8.pc"
        path.write_text("".join(blocks))
        climbs.clear()
        summary, records = run_census(str(path), jobs=1)
        assert [(f["order"], f["index"]) for f in summary.failures] == [(8, 9)]
        assert summary.failures[0]["error"] == (
            "inconsistent presentation: associativity fails at (4, 4, 4)"
        )
        # the other groups were tabulated and climbed in the same chunk,
        # and classified as on their own
        assert climbs == [2]
        assert zeroed(records) == fresh


# o8.pc goes in one chunk of five under --jobs 1, in chunks (1, 2, 3) and
# (4, 5) under --jobs 2, run here by the in-process pool
@pytest.mark.parametrize(
    "jobs, want", [(1, [5, 1, 1, 1, 1, 1]), (2, [3, 1, 1, 1, 2])], ids=["1", "2"]
)
def test_a_fault_in_the_shared_tabulation_lands_on_the_group_that_causes_it(
    tmp_path, monkeypatch, pool_sizes, jobs, want
):
    fresh = [r for r in one_by_one(fixture_path("o8.pc")) if r.group_id != (8, 3)]
    real = table._pc_tables
    tabulated = []

    def tabulation_faulting_on_group_3(presentations, cols):
        tabulated.append(len(presentations))
        if any(p.group_id == (8, 3) for p in presentations):
            raise ValueError("no table")
        return real(presentations, cols)

    monkeypatch.setattr(table, "_pc_tables", tabulation_faulting_on_group_3)
    cache = str(tmp_path / "cache")
    summary, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=jobs)
    # the shared tabulation of each chunk; the chunk that faults, then
    # each of its groups as a chunk of one
    assert tabulated == want
    [entry] = summary.failures
    assert (entry["order"], entry["index"]) == (8, 3)
    assert entry["error"].startswith("ValueError: no table (in tabulation_faulting_on_group_3 at ")
    assert zeroed(records) == zeroed(fresh)
    with open(cache_file_path(cache, 2, 8)) as fh:
        cached = [json.loads(line)["index"] for line in fh]
    # the pool reports its chunks in the order they finish
    assert (cached if jobs == 1 else sorted(cached)) == [1, 2, 4, 5]


def test_a_chunk_of_one_whose_shared_work_raises_fails_once(tmp_path, monkeypatch):
    path = tmp_path / "o8.pc"
    path.write_text(serialize_pc(o8_pres(3)))
    tabulated = []

    def tabulation_that_raises(presentations, cols):
        tabulated.append(len(presentations))
        raise ValueError("no table")

    monkeypatch.setattr(table, "_pc_tables", tabulation_that_raises)
    summary, records = run_census(str(path), jobs=1)
    # the exception is the group's failure, with no retry after it
    assert tabulated == [1]
    assert records == []
    [entry] = summary.failures
    assert (entry["order"], entry["index"]) == (8, 3)
    assert entry["error"].startswith("ValueError: no table (in tabulation_that_raises at ")


@pytest.mark.parametrize("prime, ngens", [(2, 0), (7, 1)])
def test_a_chunk_of_trivial_or_prime_order_groups(tmp_path, prime, ngens):
    order = prime**ngens
    path = tmp_path / f"o{order}.pc"
    path.write_text(
        "".join(f"GROUP {order} {i}\nPRIME {prime}\nNGENS {ngens}\nEND\n" for i in (1, 2, 3))
    )
    summary, records = run_census(str(path), jobs=1)
    assert summary.failures == ()
    assert [(r.group_id, r.rank, r.derived_length, r.semiabelian) for r in records] == [
        ((order, i), ngens, ngens, True) for i in (1, 2, 3)
    ]
    assert zeroed(records) == zeroed(one_by_one(str(path)))


@pytest.mark.parametrize("jobs, want", [(1, [2, 1, 1]), (2, [2, 1, 1])], ids=["1", "2"])
def test_a_failed_shared_climb_lands_on_the_group_that_causes_it(
    tmp_path, monkeypatch, pool_sizes, jobs, want
):
    (dihedral,) = [p for p in load_fixture("o8.pc") if p.group_id == (8, 4)]
    bad = table.CayleyTable.from_pc(dihedral).table
    fresh = [r for r in one_by_one(fixture_path("o8.pc")) if r.group_id != (8, 4)]
    real = table._climb
    climbed = []

    def climb_faulting_on_the_dihedral_table(tables):
        climbed.append(len(tables))
        if any((ct.table == bad).all() for ct in tables):
            raise ValueError("no climb")
        return real(tables)

    monkeypatch.setattr(table, "_climb", climb_faulting_on_the_dihedral_table)
    cache = str(tmp_path / "cache")
    summary, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=jobs)
    # the shared climb of both non-abelian tables, (8, 4) and (8, 5), which
    # share a chunk under either jobs; then each group of that chunk as a
    # chunk of one, where the abelian ones need no climb
    assert climbed == want
    [entry] = summary.failures
    assert (entry["order"], entry["index"]) == (8, 4)
    assert entry["error"].startswith("ValueError: no climb (in climb_faulting_on_the_dihedral_table at ")
    assert [r.group_id[1] for r in records] == [1, 2, 3, 5]
    assert zeroed(records) == zeroed(fresh)
    with open(cache_file_path(cache, 2, 8)) as fh:
        cached = [json.loads(line)["index"] for line in fh]
    # the pool reports its chunks in the order they finish
    assert (cached if jobs == 1 else sorted(cached)) == [1, 2, 3, 5]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The pool sizes the census asks for; each task runs in this process
    instead, so no worker is ever started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

        def shutdown(self, cancel_futures=False):
            pass

    # the census imports the pool class from concurrent.futures when it
    # needs one, so that is where the recording pool goes
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_pool_never_outnumbers_the_groups(pool_sizes):
    _, serial = run_census(fixture_path("o8.pc"), jobs=1)
    assert pool_sizes == []
    _, records = run_census(fixture_path("o8.pc"), jobs=5000)
    assert pool_sizes == [5]
    assert zeroed(records) == zeroed(serial)


def test_default_jobs_is_the_available_parallelism(pool_sizes, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    run_census(fixture_path("o8.pc"))
    assert pool_sizes == [3]
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run_census(fixture_path("o8.pc"))
    assert pool_sizes == [3, 4]


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_census_jobs_below_one_is_a_usage_error(jobs, pool_sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["census", fixture_path("o8.pc"), "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert pool_sizes == []


def test_run_census_rejects_mixed_orders(tmp_path):
    path = tmp_path / "mixed.pc"
    path.write_text(
        "GROUP 4 1\nPRIME 2\nNGENS 2\nEND\n\n"
        "GROUP 8 1\nPRIME 2\nNGENS 3\nEND\n"
    )
    with pytest.raises(PgfError, match="order"):
        run_census(str(path), jobs=1)


def test_run_census_rejects_empty_dataset(tmp_path):
    path = tmp_path / "empty.pc"
    path.write_text("# nothing here\n")
    with pytest.raises(PgfError, match="no groups"):
        run_census(str(path), jobs=1)


def test_run_census_parse_failure_aborts_before_classifying(tmp_path):
    path = tmp_path / "broken.pc"
    path.write_text("GROUP 8 1\nPRIME 2\nNGENS 3\nPOWER 9 = 1\nEND\n")
    cache = tmp_path / "cache"
    with pytest.raises(PcFileError):
        run_census(str(path), cache_dir=str(cache), jobs=1)
    assert not os.path.exists(cache_file_path(str(cache), 2, 8))


def test_failures_recorded_not_skipped(tmp_path):
    # order 2048 is above the table limit, which is checked before anything
    # is tabulated
    path = tmp_path / "o2048.pc"
    path.write_text(
        "".join(f"GROUP 2048 {i}\nPRIME 2\nNGENS 11\nEND\n" for i in range(1, 6))
    )
    cache = tmp_path / "cache"
    summary, records = run_census(str(path), cache_dir=str(cache), jobs=1)
    assert records == []
    assert summary.total == 0
    assert summary.non_semiabelian == 0
    assert len(summary.failures) == 5
    for entry in summary.failures:
        assert entry["order"] == 2048
        assert "exceeds table cap 1024" in entry["error"]
    # failures are retried on resume, so nothing may land in the cache
    assert not os.path.exists(cache_file_path(str(cache), 2, 2048))


# ----- resumable cache --------------------------------------------------------


def test_cache_written_and_full_resume_is_byte_identical(tmp_path):
    cache = str(tmp_path / "cache")
    s1, r1 = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    cache_file = cache_file_path(cache, 2, 8)
    assert os.path.exists(cache_file)
    with open(cache_file) as fh:
        assert len(fh.read().splitlines()) == 5
    s2, r2 = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    # everything came from the cache: identical including timings
    assert r2 == r1
    assert emit_report(r2, "json") == emit_report(r1, "json")
    assert emit_report(r2, "csv") == emit_report(r1, "csv")


def test_interrupted_run_resumes_to_identical_report(tmp_path):
    d_full = str(tmp_path / "full")
    _, r_full = run_census(fixture_path("o8.pc"), cache_dir=d_full, jobs=1)
    with open(cache_file_path(d_full, 2, 8)) as fh:
        full_lines = fh.read().splitlines()

    d_part = str(tmp_path / "part")
    os.makedirs(d_part)
    with open(cache_file_path(d_part, 2, 8), "w") as fh:
        fh.write("\n".join(full_lines[:2]) + "\n")
    _, r_resumed = run_census(fixture_path("o8.pc"), cache_dir=d_part, jobs=1)

    assert emit_report(zeroed(r_resumed), "json") == emit_report(
        zeroed(r_full), "json"
    )
    assert emit_report(zeroed(r_resumed), "csv") == emit_report(
        zeroed(r_full), "csv"
    )


def test_interrupt_keeps_every_finished_record(tmp_path, monkeypatch):
    k = 4
    real = census.classify_table
    calls = []

    def interrupted_at_k(pres, ct, spent):
        calls.append(pres.group_id)
        if len(calls) == k:
            raise KeyboardInterrupt
        return real(pres, ct, spent)

    monkeypatch.setattr(census, "classify_table", interrupted_at_k)
    cache = str(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        run_census(fixture_path("o16.pc"), cache_dir=cache, jobs=1)
    with open(cache_file_path(cache, 2, 16)) as fh:
        assert len(fh.read().splitlines()) == k - 1
    monkeypatch.undo()

    _, resumed = run_census(fixture_path("o16.pc"), cache_dir=cache, jobs=1)
    _, fresh = run_census(fixture_path("o16.pc"), jobs=1)
    assert emit_report(zeroed(resumed), "csv") == emit_report(zeroed(fresh), "csv")


def _full_cache_lines(cache):
    run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    with open(cache_file_path(cache, 2, 8)) as fh:
        return fh.read().splitlines()


def test_torn_final_line_is_dropped_and_resume_completes(tmp_path):
    cache = str(tmp_path / "cache")
    lines = _full_cache_lines(cache)
    path = cache_file_path(cache, 2, 8)
    with open(path, "w") as fh:  # the last append died halfway
        fh.write("\n".join(lines[:3]) + "\n" + lines[3][:25])
    _, resumed = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    _, fresh = run_census(fixture_path("o8.pc"), jobs=1)
    assert zeroed(resumed) == zeroed(fresh)
    # the next append started on a fresh line, so every line is a record
    with open(path) as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 5
    _, again = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert again == resumed


def test_complete_but_unterminated_final_line_is_kept(tmp_path):
    cache = str(tmp_path / "cache")
    lines = _full_cache_lines(cache)
    path = cache_file_path(cache, 2, 8)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    _, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert [r.to_json_dict() for r in records] == record_dicts(lines)
    with open(path) as fh:
        assert fh.read() == "\n".join(lines) + "\n"


def test_torn_line_inside_the_cache_fails_loudly(tmp_path):
    cache = str(tmp_path / "cache")
    lines = _full_cache_lines(cache)
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write("\n".join([lines[0], lines[1][:25]] + lines[2:]) + "\n")
    with pytest.raises(PgfError, match="unreadable cache line 2"):
        run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", 8.0),
        ("index", 2.0),
        ("rank", 1.0),
        ("rank", True),
        ("dl", True),
        ("elapsed_ms", "3"),
        ("semiabelian", "no"),
        ("semiabelian", 1),
        ("provenance", 5),
        ("screen", None),
    ],
)
def test_mistyped_cache_field_fails_loudly(tmp_path, field, value):
    """A cache line whose digest, provenance and schema match but one of
    whose fields has the wrong JSON type aborts the run, even where the
    value compares equal to a valid one (8.0 == 8, True == 1)."""
    cache = str(tmp_path / "cache")
    lines = _full_cache_lines(cache)
    path = cache_file_path(cache, 2, 8)
    tampered = []
    for line in lines:
        d = json.loads(line)
        if d["index"] == 2:
            d[field] = value
        tampered.append(json.dumps(d))
    with open(path, "w") as fh:
        fh.write("\n".join(tampered) + "\n")
    with pytest.raises(PgfError, match=f"{field} .* is not of type"):
        run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)


def test_inconsistent_presentation_is_a_recorded_failure(tmp_path):
    path = tmp_path / "bad.pc"
    path.write_text(INCONSISTENT_TEXT)
    cache = str(tmp_path / "cache")
    summary, records = run_census(str(path), cache_dir=cache, jobs=1)
    assert records == []
    assert len(summary.failures) == 1
    entry = summary.failures[0]
    assert (entry["order"], entry["index"]) == (8, 9)
    # the entry names the group; its message does not name it again
    assert entry["error"] == "inconsistent presentation: associativity fails at (4, 4, 4)"
    assert not os.path.exists(cache_file_path(cache, 2, 8))


def test_resume_skips_cached_ids(tmp_path):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    fake = CensusRecord((8, 1), "o8.pc", 1, 1, True, "inconclusive", 12345)
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write(cache_line(fake, o8_pres(1)))
    _, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert records[0] == fake  # trusted verbatim, not recomputed
    assert len(records) == 5


@pytest.mark.parametrize("stamp", [None, 5], ids=["no-digest", "other-digest"])
def test_cache_line_for_another_presentation_is_recomputed(tmp_path, stamp):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    fake = CensusRecord((8, 1), "o8.pc", 1, 1, True, "inconclusive", 12345)
    pres = o8_pres(stamp) if stamp else None
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write(cache_line(fake, pres))
    _, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert records[0].elapsed_ms != fake.elapsed_ms  # recomputed, not the fake


@pytest.mark.parametrize(
    "schema", [None, census.CACHE_SCHEMA + 1], ids=["no-schema", "other-schema"]
)
def test_cache_line_of_another_schema_is_recomputed(tmp_path, schema):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    fake = CensusRecord((8, 1), "o8.pc", 1, 1, True, "inconclusive", 12345)
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write(cache_line(fake, o8_pres(1), schema))
    _, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert records[0].elapsed_ms != fake.elapsed_ms  # recomputed, not the fake
    _, fresh = run_census(fixture_path("o8.pc"), jobs=1)
    assert zeroed(records) == zeroed(fresh)


@pytest.mark.parametrize(
    "schema", [None, census.CACHE_SCHEMA + 1], ids=["no-schema", "other-schema"]
)
def test_cache_line_of_another_layout_is_skipped_unread(tmp_path, schema):
    """A line of another schema, or of none, is skipped before its fields
    are read, so fields that do not make a record do not abort the run."""
    cache = str(tmp_path / "cache")
    lines = _full_cache_lines(cache)
    foreign = {"order": 8, "index": 1, "group": "x"}
    if schema is not None:
        foreign["schema"] = schema
    path = cache_file_path(cache, 2, 8)
    kept = [line for line in lines if json.loads(line)["index"] != 1]
    with open(path, "w") as fh:
        fh.write("\n".join(kept + [json.dumps(foreign)]) + "\n")
    _, resumed = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    _, fresh = run_census(fixture_path("o8.pc"), jobs=1)
    assert zeroed(resumed) == zeroed(fresh)
    with open(path) as fh:  # (8, 1) was recomputed and appended
        assert json.loads(fh.read().splitlines()[-1])["index"] == 1


def test_cache_line_that_is_not_an_object_fails_loudly(tmp_path):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write("[8, 1]\n")
    with pytest.raises(PgfError, match="unreadable cache line 1"):
        run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)


def test_cache_line_from_another_file_is_recomputed(tmp_path):
    cache = str(tmp_path / "cache")
    run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    other = tmp_path / "other.pc"
    shutil.copyfile(fixture_path("o8.pc"), other)  # byte-identical
    _, shared = run_census(str(other), cache_dir=cache, jobs=1)
    _, fresh = run_census(str(other), jobs=1)
    assert zeroed(shared) == zeroed(fresh)
    assert {r.provenance for r in shared} == {"other.pc"}


def test_changed_dataset_is_never_served_stale_records(tmp_path):
    cache = str(tmp_path / "cache")
    run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    # same ids, but groups 1 (cyclic) and 5 (quaternion) trade presentations
    blocks = {p.group_id[1]: serialize_pc(p) for p in load_fixture("o8.pc")}
    blocks[1], blocks[5] = (
        blocks[5].replace("GROUP 8 5", "GROUP 8 1"),
        blocks[1].replace("GROUP 8 1", "GROUP 8 5"),
    )
    changed = tmp_path / "o8.pc"
    changed.write_text("".join(blocks[i] for i in sorted(blocks)))
    _, resumed = run_census(str(changed), cache_dir=cache, jobs=1)
    _, fresh = run_census(str(changed), jobs=1)
    assert zeroed(resumed) == zeroed(fresh)
    assert (resumed[0].rank, resumed[0].derived_length) == (2, 2)
    # the recomputed records were appended and now serve the next resume
    _, again = run_census(str(changed), cache_dir=cache, jobs=1)
    assert again == resumed


def test_unexpected_exception_is_a_recorded_failure(tmp_path, monkeypatch, capsys):
    real = census.classify_table
    calls = []

    def broken_at_group_3(pres, ct, spent):
        calls.append(pres.group_id)
        if pres.group_id == (8, 3):
            raise ValueError("boom")
        return real(pres, ct, spent)

    monkeypatch.setattr(census, "classify_table", broken_at_group_3)
    cache = str(tmp_path / "cache")
    summary, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert len(calls) == 5  # the groups after the fault still ran
    assert [r.group_id[1] for r in records] == [1, 2, 4, 5]
    [entry] = summary.failures
    assert (entry["order"], entry["index"]) == (8, 3)
    # the type, the message and the raising function are named
    assert entry["error"].startswith("ValueError: boom (in broken_at_group_3 at ")
    with open(cache_file_path(cache, 2, 8)) as fh:
        assert [json.loads(line)["index"] for line in fh] == [1, 2, 4, 5]

    # nothing was cached for the group, so a resume retries it, and the
    # command-line driver exits 1
    calls.clear()
    args = ["census", fixture_path("o8.pc"), "--cache", cache, "--jobs", "1"]
    assert dispatch(args) == 1
    assert calls == [(8, 3)]
    assert "error: group (8,3): ValueError: boom" in capsys.readouterr().err


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched classifier reaches the workers only when they fork",
)
def test_broken_worker_pool_is_a_recorded_failure(tmp_path, monkeypatch, capsys):
    real = census.classify_table

    def worker_dies_at_group_3(pres, ct, spent):
        if pres.group_id == (8, 3):
            os._exit(1)
        return real(pres, ct, spent)

    monkeypatch.setattr(census, "classify_table", worker_dies_at_group_3)
    cache = str(tmp_path / "cache")
    summary, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=2)
    done = [r.group_id for r in records]
    failed = [(f["order"], f["index"]) for f in summary.failures]
    assert (8, 3) in failed
    assert sorted(done + failed) == [(8, i) for i in range(1, 6)]
    assert all(f["error"].startswith("BrokenProcessPool: ") for f in summary.failures)
    # exactly the finished records are cached; a worker dies with its
    # whole chunk, and the pool may break before any chunk returns, which
    # leaves no record and so no cache file
    path = cache_file_path(cache, 2, 8)
    cached = []
    if os.path.exists(path):
        with open(path) as fh:
            cached = [(8, json.loads(line)["index"]) for line in fh]
    assert sorted(cached) == sorted(done)
    # the command-line driver reports the broken pool and exits 1
    args = ["census", fixture_path("o8.pc"), "--cache", str(tmp_path / "cli")]
    assert dispatch(args + ["--jobs", "2"]) == 1
    assert "error: group (8,3): BrokenProcessPool: " in capsys.readouterr().err

    # a resume retries exactly the groups the broken pool left unfinished
    calls = []

    def counted(pres, ct, spent):
        calls.append(pres.group_id)
        return real(pres, ct, spent)

    monkeypatch.setattr(census, "classify_table", counted)
    summary, resumed = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert sorted(calls) == sorted(failed)
    assert summary.failures == ()
    _, fresh = run_census(fixture_path("o8.pc"), jobs=1)
    assert zeroed(resumed) == zeroed(fresh)


def test_tampered_cache_fails_loudly(tmp_path):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    bad = {
        "order": 8,
        "index": 2,
        "provenance": "x",
        "rank": 1,
        "dl": 3,
        "semiabelian": True,
        "screen": "inconclusive",
        "elapsed_ms": 0,
        "schema": census.CACHE_SCHEMA,
    }
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write(json.dumps(bad) + "\n")
    with pytest.raises(PgfError):
        run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)


def test_unreadable_cache_line_fails_loudly(tmp_path):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write("this is not json\n")
    with pytest.raises(PgfError, match="cache"):
        run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)


def test_foreign_cache_ids_are_ignored(tmp_path):
    cache = str(tmp_path / "cache")
    os.makedirs(cache)
    foreign = CensusRecord((8, 999), "elsewhere", 1, 1, True, "inconclusive", 1)
    with open(cache_file_path(cache, 2, 8), "w") as fh:
        fh.write(json.dumps(foreign.to_json_dict()) + "\n")
    summary, records = run_census(fixture_path("o8.pc"), cache_dir=cache, jobs=1)
    assert summary.total == 5
    assert (8, 999) not in [r.group_id for r in records]


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv("PGF_CACHE", cache)
    run_census(fixture_path("o8.pc"), jobs=1)
    assert os.path.exists(cache_file_path(cache, 2, 8))


# ----- report emission --------------------------------------------------------


def test_emit_report_csv_header_only_when_empty():
    out = emit_report([], "csv")
    assert out == "order,index,provenance,rank,dl,semiabelian,screen,elapsed_ms\n"


def test_emit_report_csv_six_lines_for_fixture():
    _, records = run_census(fixture_path("o8.pc"), jobs=1)
    out = emit_report(records, "csv")
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0] == "order,index,provenance,rank,dl,semiabelian,screen,elapsed_ms"
    assert lines[1].startswith("8,1,")


def test_emit_report_json_shape():
    _, records = run_census(fixture_path("o8.pc"), jobs=1)
    doc = json.loads(emit_report(records, "json"))
    assert set(doc) == {"summary", "records"}
    assert doc["summary"]["order"] == 8
    assert doc["summary"]["total"] == 5
    assert doc["summary"]["non_semiabelian"] == 0
    assert doc["summary"]["failures"] == []
    assert len(doc["records"]) == 5
    assert list(doc["records"][0]) == [
        "order",
        "index",
        "provenance",
        "rank",
        "dl",
        "semiabelian",
        "screen",
        "elapsed_ms",
    ]


def test_emit_report_includes_failures_when_given():
    doc = json.loads(
        emit_report([], "json", failures=({"order": 8, "index": 1, "error": "cap"},))
    )
    assert doc["summary"]["failures"] == [{"order": 8, "index": 1, "error": "cap"}]


def test_emit_report_byte_identical_for_identical_records():
    _, records = run_census(fixture_path("o8.pc"), jobs=1)
    shuffled = list(reversed(records))
    assert emit_report(records, "json") == emit_report(shuffled, "json")
    assert emit_report(records, "csv") == emit_report(shuffled, "csv")


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit_report([], "xml")


# ----- wider fixture sweep ----------------------------------------------------


@pytest.mark.parametrize(
    "name,order,count",
    [("o16.pc", 16, 14), ("o27.pc", 27, 5), ("o81.pc", 81, 15)],
)
def test_run_census_small_fixture_counts(name, order, count):
    summary, records = run_census(fixture_path(name), jobs=1)
    assert summary.order == order
    assert summary.total == count
    assert summary.non_semiabelian == 0
    assert summary.failures == ()
    for rec in records:
        assert rec.derived_length <= rec.rank or not rec.semiabelian
