"""Batch classification of power-commutator datasets.

`run_census` ingests one pc file (all groups of a single order and prime),
classifies every group (rank, derived length, semiabelian flag plus the
derived-length screen) and returns summary counts next to the records.
Each record is appended to a JSON-lines cache file as soon as its group
is classified, together with a SHA-256 of the group's presentation, so an
interrupted long run resumes by skipping finished groups, and a record
whose presentation or file name differs from the current one is
recomputed rather than served.
Groups classify independently, so a worker pool can spread the load;
results are keyed and sorted by group id before reporting, which keeps
the output independent of scheduling.

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
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from io import StringIO
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import CapExceeded, PcFileError, PgfError
from .family import (
    SCREEN_INCONCLUSIVE,
    SCREEN_NOT_MEMBER,
    semiabelian_table,
    validate_witness,
)
from .pc import PcPresentation, parse_pc_file, serialize_pc
from .table import DEFAULT_TABLE_CAP, CayleyTable

CACHE_ENV = "PGF_CACHE"

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
    """One classified group. Constructing an inconsistent record raises,
    so tampered cache lines and buggy classifications fail loudly instead
    of flowing into reports."""

    group_id: tuple
    provenance: str
    rank: int
    derived_length: int
    semiabelian: bool
    screen: str
    elapsed_ms: int

    def __post_init__(self):
        order, index = self.group_id
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


def classify_presentation(
    pres: PcPresentation, table_cap: int = DEFAULT_TABLE_CAP
) -> CensusRecord:
    """Classify one group from its multiplication table, which tabulation
    proves to be a group, and independently validate any semiabelian
    witness before trusting it."""
    t0 = time.perf_counter()
    if pres.order > table_cap:
        raise CapExceeded(f"order {pres.order} exceeds table cap {table_cap}")
    ct = CayleyTable.from_pc(pres)
    rk = ct.rank()
    dl = ct.derived_length()
    verdict = semiabelian_table(ct)
    if verdict.flag and not validate_witness(ct, verdict.witness):
        raise PgfError(
            f"group {pres.group_id}: decomposition witness failed the "
            f"independent recheck"
        )
    screen = SCREEN_NOT_MEMBER if dl > rk else SCREEN_INCONCLUSIVE
    elapsed = int((time.perf_counter() - t0) * 1000)
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
    """Read completed records whose `pc_sha256` and provenance match the
    `_cache_key` of the current presentation with that id; the first such
    line wins. Lines for other ids, without a digest, with a different one
    or from another file are skipped, so those groups are recomputed (the
    file is append-only and may be shared).

    A final line without a newline is an append cut short by an interrupt.
    It is kept and terminated when it parses, and cut off otherwise, so the
    next append starts on a fresh line. Any other unreadable line raises.
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


def _append_record(path: str, rec: CensusRecord, digest: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(rec.to_json_dict(), pc_sha256=digest)) + "\n")


def _classify_task(args) -> tuple:
    pres, table_cap = args
    try:
        return ("ok", classify_presentation(pres, table_cap))
    except PgfError as exc:
        return ("fail", pres.group_id, str(exc))
    except Exception as exc:
        # one group's fault must not abort the census; KeyboardInterrupt
        # is not an Exception and still stops the run
        at = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{at.name} at {os.path.basename(at.filename)}:{at.lineno}"
        return ("fail", pres.group_id, f"{type(exc).__name__}: {exc} (in {where})")


def _map_tasks(todo: Sequence, table_cap: int, jobs: int) -> Iterator[tuple]:
    """Yield each outcome as soon as it is ready, so callers can cache it
    before the next group finishes. A worker that dies breaks the pool;
    every group it leaves unfinished becomes a failure."""
    tasks = [(p, table_cap) for p in todo]
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(_classify_task, tasks)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {pool.submit(_classify_task, t): t[0].group_id for t in tasks}
        try:
            for fut in as_completed(futures):
                try:
                    outcome = fut.result()
                except BrokenProcessPool as exc:
                    outcome = ("fail", futures[fut], f"BrokenProcessPool: {exc}")
                yield outcome
        finally:
            # an interrupted run must not wait for the groups still queued
            pool.shutdown(cancel_futures=True)


def run_census(
    path: str,
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> Tuple[CensusSummary, List[CensusRecord]]:
    """Classify every group in a pc file, resuming from the cache if given.

    `cache_dir` falls back to the PGF_CACHE environment variable; with
    neither set the run is purely in-memory. `jobs` defaults to the
    machine's available parallelism.
    """
    t0 = time.perf_counter()
    presentations = parse_pc_file(path)
    if not presentations:
        raise PcFileError("dataset has no groups", path=path)
    orders = sorted({p.order for p in presentations})
    primes = sorted({p.prime for p in presentations})
    if len(orders) > 1:
        raise PcFileError(f"dataset mixes orders {orders}", path=path)
    if len(primes) > 1:
        raise PcFileError(f"dataset mixes primes {primes}", path=path)
    order, prime = orders[0], primes[0]
    # a cached record is served only for the presentation and file it came from
    keys = {p.group_id: _cache_key(p) for p in presentations}

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV)
    cache_path = None
    cached: dict = {}
    if cache_dir:
        cache_path = cache_file_path(cache_dir, prime, order)
        cached = _load_cache(cache_path, keys)

    todo = [p for p in presentations if p.group_id not in cached]
    if jobs is None:
        jobs = os.cpu_count() or 1

    fresh: dict = {}
    failures: list = []
    for outcome in _map_tasks(todo, table_cap, jobs):
        if outcome[0] == "ok":
            rec = outcome[1]
            fresh[rec.group_id] = rec
            if cache_path:
                _append_record(cache_path, rec, keys[rec.group_id][0])
        else:
            _, gid, msg = outcome
            failures.append({"order": gid[0], "index": gid[1], "error": msg})

    records = sorted((cached | fresh).values(), key=lambda r: r.group_id)
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
