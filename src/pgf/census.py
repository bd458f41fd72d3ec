"""Batch classification of power-commutator datasets.

`classify_bucket` classifies groups of one order and prime (rank, derived
length, semiabelian flag plus the derived-length screen) for `run_census`,
which ingests one pc file, and for the dataset claims of `pgf verify`.
Each record is appended to a JSON-lines cache file as soon as its group
is classified, together with a SHA-256 of the group's presentation, so an
interrupted long run resumes by skipping finished groups, and a record
whose presentation or file name differs from the current one is
recomputed rather than served.
The groups still to classify go in chunks, each bounded by a fixed
number of table cells. A chunk tabulates each of its presentations,
climbs the subgroup lattices of all its non-abelian tables in one climb
(`table.lattices`), then finishes its groups one at a time
(`classify_table`). Chunks classify independently, so a worker pool can
spread the load, one chunk per task; results are keyed and sorted by
group id before reporting, which keeps the output independent of
scheduling.

Per-group failures (typically cap violations, but any exception a group's
classification raises, or a worker process that dies) never vanish: they
are collected in the summary, excluded from the cache so a later run
retries them, and the `pgf census` command turns them into a nonzero exit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import PcFileError, PgfError
from .family import (
    SCREEN_INCONCLUSIVE,
    SCREEN_NOT_MEMBER,
    semiabelian_table,
    validate_witness,
)
from .pc import PcPresentation, parse_pc_file, serialize_pc
from .table import CayleyTable, lattices

CACHE_ENV = "PGF_CACHE"
# cells of the multiplication tables in one chunk: the climb stacks them
_CHUNK_CELLS = 1 << 17
# version of the cache line layout; lines of any other version are recomputed
CACHE_SCHEMA = 1

CSV_COLUMNS = (
    "order",
    "index",
    "provenance",
    "rank",
    "dl",
    "semiabelian",
    "screen",
    "elapsed_ms",
)


@dataclass(frozen=True)
class CensusRecord:
    """One classified group. Constructing a mistyped or inconsistent
    record raises, so tampered cache lines and buggy classifications fail
    loudly instead of flowing into reports."""

    group_id: tuple
    provenance: str
    rank: int
    derived_length: int
    semiabelian: bool
    screen: str
    elapsed_ms: int

    def __post_init__(self):
        order, index = self.group_id
        for name, value, kind in (
            ("order", order, int),
            ("index", index, int),
            ("rank", self.rank, int),
            ("dl", self.derived_length, int),
            ("elapsed_ms", self.elapsed_ms, int),
            ("semiabelian", self.semiabelian, bool),
            ("provenance", self.provenance, str),
            ("screen", self.screen, str),
        ):
            # exact types: a bool is an int, and 8.0 == 8
            if type(value) is not kind:
                raise PgfError(
                    f"record {self.group_id}: {name} {value!r} "
                    f"is not of type {kind.__name__}"
                )
        if order < 1 or index < 1:
            raise PgfError(f"malformed group id {self.group_id}")
        expected = (
            SCREEN_NOT_MEMBER
            if self.derived_length > self.rank
            else SCREEN_INCONCLUSIVE
        )
        if self.screen != expected:
            raise PgfError(
                f"record {self.group_id}: screen {self.screen!r} "
                f"inconsistent with dl={self.derived_length}, rank={self.rank}"
            )
        if self.semiabelian and self.derived_length > self.rank:
            raise PgfError(
                f"record {self.group_id}: semiabelian flag contradicts "
                f"dl={self.derived_length} > rank={self.rank}"
            )
        if self.elapsed_ms < 0:
            raise PgfError(f"record {self.group_id}: negative elapsed_ms")

    def to_json_dict(self) -> dict:
        return {
            "order": self.group_id[0],
            "index": self.group_id[1],
            "provenance": self.provenance,
            "rank": self.rank,
            "dl": self.derived_length,
            "semiabelian": self.semiabelian,
            "screen": self.screen,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CensusRecord":
        try:
            return cls(
                group_id=(d["order"], d["index"]),
                provenance=d["provenance"],
                rank=d["rank"],
                derived_length=d["dl"],
                semiabelian=d["semiabelian"],
                screen=d["screen"],
                elapsed_ms=d["elapsed_ms"],
            )
        except KeyError as exc:
            raise PgfError(f"census record is missing field {exc}") from exc


@dataclass(frozen=True)
class CensusSummary:
    order: int
    total: int
    non_semiabelian: int
    wall_time_ms: int
    failures: tuple


def classify_presentation(pres: PcPresentation) -> CensusRecord:
    """Classify one group on its own: tabulate it and `classify_table`."""
    t0 = time.perf_counter()
    ct = CayleyTable.from_pc(pres)
    return classify_table(pres, ct, time.perf_counter() - t0)


def classify_table(
    pres: PcPresentation, ct: CayleyTable, spent: float = 0.0
) -> CensusRecord:
    """Classify one group from its multiplication table, which tabulation
    proves to be a group, and independently validate any semiabelian
    witness before trusting it. `spent` is the time in seconds already
    spent on the group (its tabulation, its share of a shared climb); the
    record's elapsed_ms counts it too."""
    t0 = time.perf_counter()
    rk = ct.rank()
    dl = ct.derived_length()
    verdict = semiabelian_table(ct)
    if verdict.flag and not validate_witness(ct, verdict.witness):
        raise PgfError(
            f"group {pres.group_id}: decomposition witness failed the "
            f"independent recheck"
        )
    screen = SCREEN_NOT_MEMBER if dl > rk else SCREEN_INCONCLUSIVE
    elapsed = int((spent + time.perf_counter() - t0) * 1000)
    return CensusRecord(
        group_id=pres.group_id,
        provenance=pres.provenance,
        rank=rk,
        derived_length=dl,
        semiabelian=verdict.flag,
        screen=screen,
        elapsed_ms=elapsed,
    )


def cache_file_path(cache_dir: str, prime: int, order: int) -> str:
    return os.path.join(cache_dir, f"census-p{prime}-o{order}.jsonl")


def _cache_key(pres: PcPresentation) -> tuple:
    """(SHA-256 of the presentation text, provenance): what a cache line
    must match to be served for this group."""
    text = serialize_pc(pres).encode("utf-8")
    return hashlib.sha256(text).hexdigest(), pres.provenance


def _load_cache(path: str, keys: dict) -> dict:
    """Read completed records of schema `CACHE_SCHEMA` whose `pc_sha256`
    and provenance match the `_cache_key` of the current presentation with
    that id; the first such line wins. Lines for other ids, of another
    schema or none, without a digest, with a different one or from another
    file are skipped, so those groups are recomputed (the file is
    append-only and may be shared).

    A final line without a newline is an append cut short by an interrupt.
    It is kept and terminated when it parses, and cut off otherwise, so the
    next append starts on a fresh line. Any other line that is not a JSON
    object raises, and so does a line of the current schema that is not a
    valid record; a line of another schema is skipped before its fields
    are read.
    """
    out: dict = {}
    if not os.path.exists(path):
        return out
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        try:
            json.loads(data[end:])
        except ValueError:
            with open(path, "r+b") as fh:
                fh.truncate(end)
        else:
            with open(path, "ab") as fh:
                fh.write(b"\n")
            end = len(data)
    lines = data[:end].decode("utf-8", errors="replace").split("\n")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            d = json.loads(line)
            if not isinstance(d, dict):
                raise ValueError("not a JSON object")
            if d.get("schema") != CACHE_SCHEMA:
                continue
            rec = CensusRecord.from_json_dict(d)
        except PgfError:
            raise
        except Exception as exc:
            raise PgfError(
                f"unreadable cache line {lineno} in {path}: {exc}"
            ) from exc
        if keys.get(rec.group_id) == (d.get("pc_sha256"), rec.provenance):
            out.setdefault(rec.group_id, rec)
    return out


@contextmanager
def _cache_errors(path: str) -> Iterator[None]:
    """Raise an OSError met on the cache as a PgfError naming the path."""
    try:
        yield
    except OSError as exc:
        where = exc.filename or path
        raise PgfError(f"{where}: cannot use census cache: {exc.strerror or exc}") from exc


def _append_record(fh, rec: CensusRecord, digest: str) -> None:
    """Append one cache line and flush it, so an interrupt keeps it."""
    line = dict(rec.to_json_dict(), pc_sha256=digest, schema=CACHE_SCHEMA)
    fh.write(json.dumps(line) + "\n")
    fh.flush()


def _attempt(gid: tuple, fn, *args) -> tuple:
    """("ok", fn(*args)), or ("fail", gid, message) when it raises."""
    try:
        return ("ok", fn(*args))
    except PgfError as exc:
        return ("fail", gid, str(exc))
    except Exception as exc:
        # one group's fault must not abort the census; KeyboardInterrupt
        # is not an Exception and still stops the run
        at = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{at.name} at {os.path.basename(at.filename)}:{at.lineno}"
        return ("fail", gid, f"{type(exc).__name__}: {exc} (in {where})")


def _classify_chunk(chunk: Sequence[PcPresentation]) -> Iterator[tuple]:
    """The outcome of each group of a chunk of one order, as soon as it is
    known.

    A presentation that fails to tabulate fails at once, alone. The
    non-abelian tables are climbed together, and each group's record
    counts an equal share of that climb. If the shared climb raises, each
    of its tables is climbed again on its own when its group is finished,
    so the fault lands on the group that causes it.
    """
    tabled = []  # [presentation, table, seconds spent on the group]
    for pres in chunk:
        t0 = time.perf_counter()
        outcome = _attempt(pres.group_id, CayleyTable.from_pc, pres)
        if outcome[0] == "fail":
            yield outcome
            continue
        tabled.append([pres, outcome[1], time.perf_counter() - t0])
    climb = [e for e in tabled if not e[1].is_abelian_ids(range(e[1].n))]
    if climb:
        t0 = time.perf_counter()
        try:
            lattices([ct for _, ct, _ in climb])
        except Exception:
            pass
        share = (time.perf_counter() - t0) / len(climb)
        for entry in climb:
            entry[2] += share
    for pres, ct, spent in tabled:
        yield _attempt(pres.group_id, classify_table, pres, ct, spent)


def _chunk_task(chunk: Sequence[PcPresentation]) -> list:
    """The outcomes of one chunk, for a worker process."""
    return list(_classify_chunk(chunk))


def _chunks(todo: Sequence[PcPresentation], jobs: int) -> list:
    """Consecutive chunks of near-equal size: as few as keep each chunk's
    tables within _CHUNK_CELLS cells (one table at least), and no fewer
    than `jobs` where there are that many groups."""
    if not todo:
        return []
    size = max(1, _CHUNK_CELLS // todo[0].order**2)
    count = max(-(-len(todo) // size), min(jobs, len(todo)))
    q, r = divmod(len(todo), count)
    bounds = [i * q + min(i, r) for i in range(count + 1)]
    return [todo[a:b] for a, b in zip(bounds, bounds[1:])]


def _available_parallelism() -> int:
    """The CPUs this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def classify_outcomes(
    presentations: Sequence[PcPresentation], jobs: int = 1
) -> Iterator[tuple]:
    """Classify presentations of one order, chunk by chunk, and yield each
    outcome as soon as it is ready, so callers can cache it before the
    next group finishes: ("ok", record), or ("fail", group_id, message).

    With `jobs` above 1 the chunks run in that many worker processes, one
    chunk per task. A worker that dies breaks the pool; every group it
    leaves unfinished becomes a failure.
    """
    chunks = _chunks(presentations, jobs)
    if jobs <= 1 or len(chunks) <= 1:
        for chunk in chunks:
            yield from _classify_chunk(chunk)
        return
    # imported here: the pool pulls in multiprocessing, which serial runs
    # and every other command never need
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    # the pool may start every worker at once, so never more than the chunks
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        futures = {pool.submit(_chunk_task, chunk): chunk for chunk in chunks}
        try:
            for fut in as_completed(futures):
                try:
                    outcomes = fut.result()
                except BrokenProcessPool as exc:
                    outcomes = [
                        ("fail", pres.group_id, f"BrokenProcessPool: {exc}")
                        for pres in futures[fut]
                    ]
                yield from outcomes
        finally:
            # an interrupted run must not wait for the chunks still queued
            pool.shutdown(cancel_futures=True)


def run_census(
    path: str,
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
) -> Tuple[CensusSummary, List[CensusRecord]]:
    """Classify every group in a pc file, which must hold groups of one
    order and one prime, with `classify_bucket`."""
    presentations = parse_pc_file(path)
    if not presentations:
        raise PcFileError("dataset has no groups", path=path)
    orders = sorted({p.order for p in presentations})
    primes = sorted({p.prime for p in presentations})
    if len(orders) > 1:
        raise PcFileError(f"dataset mixes orders {orders}", path=path)
    if len(primes) > 1:
        raise PcFileError(f"dataset mixes primes {primes}", path=path)
    return classify_bucket(presentations, cache_dir=cache_dir, jobs=jobs)


def classify_bucket(
    presentations: Sequence[PcPresentation],
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
) -> Tuple[CensusSummary, List[CensusRecord]]:
    """Classify presentations of one order and one prime, from one file or
    several, resuming from the cache if given, and return summary counts
    next to the records. There must be at least one presentation, and
    group ids must be distinct.

    `cache_dir` falls back to the PGF_CACHE environment variable; with
    neither set the run is purely in-memory. `jobs` defaults to the
    machine's available parallelism.
    """
    t0 = time.perf_counter()
    if not presentations:
        raise PgfError("no presentations to classify")
    # a cached record is served only for the presentation and file it came from
    keys = {p.group_id: _cache_key(p) for p in presentations}
    if len(keys) < len(presentations):
        raise PgfError("a group id occurs more than once among the presentations")
    order, prime = presentations[0].order, presentations[0].prime

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    cache_path = cache = None
    cached: dict = {}
    if cache_dir:
        # a cache directory or file that cannot be made or read is refused
        # before any group is classified
        cache_path = cache_file_path(cache_dir, prime, order)
        with _cache_errors(cache_path):
            os.makedirs(cache_dir, exist_ok=True)
            cached = _load_cache(cache_path, keys)

    todo = [p for p in presentations if p.group_id not in cached]
    if jobs is None:
        jobs = _available_parallelism()

    fresh: dict = {}
    failed: dict = {}
    try:
        for outcome in classify_outcomes(todo, jobs):
            if outcome[0] == "ok":
                rec = outcome[1]
                fresh[rec.group_id] = rec
                if cache_path:
                    # opened once, at the first record, so a run whose
                    # groups all fail leaves no cache file
                    with _cache_errors(cache_path):
                        if cache is None:
                            cache = open(cache_path, "a", encoding="utf-8")
                        _append_record(cache, rec, keys[rec.group_id][0])
            else:
                _, gid, msg = outcome
                failed[gid] = {"order": gid[0], "index": gid[1], "error": msg}
    finally:
        if cache:
            cache.close()

    records = sorted((cached | fresh).values(), key=lambda r: r.group_id)
    # in input order, however the chunks ran
    failures = [failed[p.group_id] for p in todo if p.group_id in failed]
    summary = CensusSummary(
        order=order,
        total=len(records),
        non_semiabelian=sum(1 for r in records if not r.semiabelian),
        wall_time_ms=int((time.perf_counter() - t0) * 1000),
        failures=tuple(failures),
    )
    return summary, records


def emit_report(records, fmt: str, failures: Sequence[dict] = ()) -> str:
    """Serialize records with a stable column order.

    Output is byte-identical for identical inputs: records are sorted by
    group id and the JSON summary aggregates per-record times rather than
    embedding a measured wall clock. CSV carries the records only;
    failures appear in the JSON summary and in the driver's exit code.
    """
    rows = sorted(records, key=lambda r: r.group_id)
    if fmt == "csv":
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.group_id[0],
                    r.group_id[1],
                    r.provenance,
                    r.rank,
                    r.derived_length,
                    "true" if r.semiabelian else "false",
                    r.screen,
                    r.elapsed_ms,
                ]
            )
        return buf.getvalue()
    if fmt == "json":
        summary = {
            "order": rows[0].group_id[0] if rows else None,
            "total": len(rows),
            "non_semiabelian": sum(1 for r in rows if not r.semiabelian),
            "wall_time_ms": sum(r.elapsed_ms for r in rows),
            "failures": [dict(f) for f in failures],
        }
        doc = {"summary": summary, "records": [r.to_json_dict() for r in rows]}
        return json.dumps(doc, indent=2)
    raise ValueError(f"unknown report format {fmt!r}")
