"""Independent reference computations and the claim verification gate.

The reference functions deliberately avoid the production code paths they
check (stabilizer chains, tabulated presentations), so agreement between
the two routes is meaningful evidence rather than a tautology.

`run_claims` executes the eight headline claims and returns one result per
claim with a PASS/FAIL/SKIPPED status; SKIPPED only ever means a required
dataset or opt-in flag is absent, never a swallowed failure. Claims carry
hard runtime budgets where the contract specifies one, and exceeding the
budget fails the claim even when the numbers agree.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arith import exact_log
from .group import DEFAULT_ENUM_CAP, PermGroup
from .perm import Perm

LONG_RUN_ENV = "PGF_RUN_LONG"


def naive_closure(
    gens: Sequence[Perm], cap: int = DEFAULT_ENUM_CAP
) -> Optional[set]:
    """Close a generator set under multiplication by brute force.

    Returns the full element set, or None when it would exceed `cap`.
    Never consults stabilizer chains.
    """
    if not gens:
        raise ValueError("need at least one generator (identity is fine)")
    ident = Perm.identity(gens[0].degree)
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in elems:
                    if len(elems) >= cap:
                        return None
                    elems.add(q)
                    new.append(q)
        frontier = new
    return elems


# ----- the claims gate --------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    number: int
    name: str
    status: str  # PASS | FAIL | SKIPPED
    detail: str
    elapsed_s: float


class _ClaimContext:
    """Shared state across claims: records collected by the census-style
    claims feed the consistency screen, and configuration rides along."""

    def __init__(self, data_dir, cache_dir, include_long):
        self.data_dir = data_dir
        self.cache_dir = cache_dir
        self.include_long = include_long
        self.records = []


def _claim_rank_additivity(ctx) -> tuple:
    from .family import Wreath, certificate_corpus, eval_cert, serialize_cert
    from .ops import rank

    corpus = certificate_corpus()
    wreaths = [c for c in corpus if isinstance(c, Wreath)]
    if len(wreaths) < 30:
        return "FAIL", f"only {len(wreaths)} wreath certificates in the corpus"
    bad = []
    for c in wreaths:
        whole = rank(eval_cert(c))
        parts = rank(eval_cert(c.inner)) + rank(eval_cert(c.outer))
        if whole != parts:
            bad.append(f"{serialize_cert(c)}: {whole} != {parts}")
    if bad:
        return "FAIL", f"{len(bad)} of {len(wreaths)} wreaths not additive: " + "; ".join(bad[:3])
    return "PASS", f"rank additive on all {len(wreaths)} wreath certificates"


def _claim_dl_le_rank(ctx) -> tuple:
    from .family import certificate_corpus, declared_rank, eval_cert, serialize_cert
    from .ops import derived_length

    corpus = certificate_corpus()
    bad = []
    for c in corpus:
        # eval_cert raises unless the computed rank is the declared one
        if derived_length(eval_cert(c)) > declared_rank(c):
            bad.append(serialize_cert(c))
    if bad:
        return "FAIL", f"derived length exceeds rank for {bad[:3]}"
    return "PASS", f"derived length <= rank on all {len(corpus)} corpus groups"


def _count_claim(ctx, targets) -> tuple:
    """Shared body for the dataset count claims: targets is a list of
    (prime, order, expected_total, expected_non_semiabelian). Each bucket
    runs through the resumable census, so `ctx.cache_dir` applies."""
    from .census import classify_bucket
    from .datasets import default_data_dir, scan_data_dir

    buckets = scan_data_dir(ctx.data_dir or default_data_dir())
    absent, ran, bad = [], [], []
    for prime, order, want_total, want_non in targets:
        presentations = buckets.get((prime, order), [])
        if not presentations:
            absent.append(f"{prime}^{exact_log(order, prime)}")
            continue
        summary, records = classify_bucket(presentations, cache_dir=ctx.cache_dir)
        ctx.records.extend(records)
        non = sum(1 for r in records if not r.semiabelian)
        ran.append(f"order {order}: {non} of {len(records)} non-semiabelian")
        if summary.failures:
            bad.append(f"order {order}: {len(summary.failures)} groups failed to classify")
        if len(records) != want_total or non != want_non:
            bad.append(
                f"order {order}: expected {want_non} of {want_total}, "
                f"got {non} of {len(records)}"
            )
    if bad:
        return "FAIL", "; ".join(bad)
    if absent:
        note = "datasets absent: " + ", ".join(absent) + " (see README)"
        if ran:
            note += "; " + "; ".join(ran)
        return "SKIPPED", note
    return "PASS", "; ".join(ran)


def _claim_note_counts(ctx) -> tuple:
    return _count_claim(ctx, [(2, 64, 267, 10), (3, 243, 67, 10)])


def _claim_small_orders(ctx) -> tuple:
    from .census import classify_outcomes
    from .datasets import default_data_dir, load_all_fixtures, scan_data_dir

    def in_scope(prime, order):
        return (prime == 2 and order <= 32) or (prime == 3 and order <= 81)

    presentations = [
        p for p in load_all_fixtures() if in_scope(p.prime, p.order)
    ]
    seen = {p.group_id for p in presentations}
    for (prime, order), bucket in scan_data_dir(
        ctx.data_dir or default_data_dir()
    ).items():
        if in_scope(prime, order):
            presentations += [p for p in bucket if p.group_id not in seen]
    buckets: dict = {}
    for p in presentations:
        buckets.setdefault((p.prime, p.order), []).append(p)
    records = []
    for bucket in buckets.values():
        for outcome in classify_outcomes(bucket):
            if outcome[0] == "fail":
                _, (order, index), msg = outcome
                return "FAIL", f"group ({order},{index}): {msg}"
            records.append(outcome[1])
    ctx.records.extend(records)
    bad = [r.group_id for r in records if not r.semiabelian]
    if bad:
        return "FAIL", f"non-semiabelian groups found: {bad}"
    orders2 = sorted({r.group_id[0] for r in records if r.group_id[0] % 2 == 0})
    orders3 = sorted({r.group_id[0] for r in records if r.group_id[0] % 3 == 0})
    return "PASS", (
        f"all {len(records)} groups semiabelian "
        f"(2-power orders {orders2}, 3-power orders {orders3})"
    )


def _claim_series_bounds_exceed_rank(ctx) -> tuple:
    from .ramification import min_ramified_primes

    rep = min_ramified_primes("W(C(5,1),C(5,1))")
    ok = (
        rep.rank == 2
        and rep.plans_bound_excluding_first > rep.rank
        and rep.plans_bound_excluding_last > rep.rank
    )
    detail = (
        f"rank {rep.rank}, bound omitting first factor "
        f"{rep.plans_bound_excluding_first}, omitting last "
        f"{rep.plans_bound_excluding_last}"
    )
    return ("PASS" if ok else "FAIL"), detail


def _claim_screen_consistency(ctx) -> tuple:
    from .family import SCREEN_NOT_MEMBER

    violations = []
    for r in ctx.records:
        if r.semiabelian and r.derived_length > r.rank:
            violations.append(r.group_id)
        if r.screen == SCREEN_NOT_MEMBER and r.semiabelian:
            violations.append(r.group_id)
    if violations:
        return "FAIL", f"violations at {violations[:5]}"
    if not ctx.records:
        return "FAIL", "no classified groups reached the screen"
    return "PASS", f"{len(ctx.records)} records, zero violations"


# cycles of generators of the Sylow 2-subgroup of S8 (C2 wr C2 wr C2, order
# 128) and the Sylow 3-subgroup of S9 (C3 wr C3, order 81)
_SYLOW_GENERATORS = (
    (8, ([(1, 2)], [(1, 3), (2, 4)], [(1, 5), (2, 6), (3, 7), (4, 8)])),
    (9, ([(1, 2, 3)], [(1, 4, 7), (2, 5, 8), (3, 6, 9)])),
)


def _claim_oracle_agreement(ctx) -> tuple:
    from .datasets import load_all_fixtures
    from .pc import pc_to_perm
    from .table import CayleyTable, lattices

    rng = random.Random(11)
    closures = 0
    for _ in range(100):
        degree, sylow = rng.choice(_SYLOW_GENERATORS)
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        conj = Perm(images)
        gens = []
        for _ in range(rng.randint(1, 3)):
            word = Perm.identity(degree)
            for _ in range(rng.randint(1, 6)):
                word = word * Perm.from_cycles(degree, rng.choice(sylow))
            gens.append(conj.inverse() * word * conj)
        g = PermGroup(gens, degree=degree)
        if g.order != len(naive_closure(gens)):
            return "FAIL", f"chain order {g.order} != naive closure size"
        closures += 1

    fixtures = load_all_fixtures()
    checked = []  # (group id, table) for the Frattini check
    for pres in fixtures:
        perm = pc_to_perm(pres)
        if pres.prime**pres.ngens != perm.order:
            return "FAIL", f"presentation/chain order mismatch on {pres.group_id}"
        if pres.order <= 64:
            checked.append((pres.group_id, CayleyTable.from_perm_group(perm)))
    # one climb per order
    for order in {ct.n for _, ct in checked}:
        lattices([ct for _, ct in checked if ct.n == order])
    for gid, ct in checked:
        powers_comms = set(ct.frattini_ids())
        lat = ct.lattice()
        mask = np.logical_and.reduce([lat.mask(m) for m in lat.maximal()])
        intersection = set(np.flatnonzero(mask).tolist())
        if powers_comms != intersection:
            return "FAIL", f"Frattini routes disagree on {gid}"

    return "PASS", (
        f"{closures} random closures, {len(checked)} Frattini "
        f"intersections, {len(fixtures)} presentation orders all agree"
    )


def _claim_extended_counts(ctx) -> tuple:
    if not ctx.include_long:
        return "SKIPPED", (
            f"long-running; set {LONG_RUN_ENV}=1 and provide the order-128 "
            f"and order-729 datasets (the order-256 census is reachable via "
            f"the census command but is never a gate)"
        )
    return _count_claim(ctx, [(2, 128, 2328, 82), (3, 729, 504, 54)])


_CLAIMS = (
    ("wreath rank additivity", _claim_rank_additivity, 60.0),
    ("derived length bounded by rank", _claim_dl_le_rank, 120.0),
    ("non-semiabelian counts at orders 64 and 243", _claim_note_counts, None),
    ("small orders all semiabelian", _claim_small_orders, None),
    ("series bounds exceed rank for the degree-25 wreath", _claim_series_bounds_exceed_rank, 60.0),
    ("screen consistency across classified groups", _claim_screen_consistency, None),
    ("independent oracle agreement", _claim_oracle_agreement, None),
    ("extended counts at orders 128 and 729", _claim_extended_counts, None),
)


def run_claims(
    data_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    include_long: Optional[bool] = None,
) -> list:
    """Run the eight claims in order and return their results."""
    if include_long is None:
        include_long = os.environ.get(LONG_RUN_ENV) == "1"
    ctx = _ClaimContext(data_dir, cache_dir, include_long)
    results = []
    for number, (name, fn, budget) in enumerate(_CLAIMS, start=1):
        t0 = time.perf_counter()
        try:
            status, detail = fn(ctx)
        except Exception as exc:
            status, detail = "FAIL", f"unexpected error: {exc}"
        elapsed = time.perf_counter() - t0
        if status == "PASS" and budget is not None and elapsed > budget:
            status = "FAIL"
            detail += f"; took {elapsed:.1f}s, budget {budget:.0f}s"
        results.append(ClaimResult(number, name, status, detail, elapsed))
    return results


def format_claims(results) -> str:
    lines = []
    for r in results:
        lines.append(
            f"CRITERION {r.number}: {r.status} - {r.name}: {r.detail} "
            f"({r.elapsed_s:.1f}s)"
        )
    return "\n".join(lines)
