"""Ramified-prime counts forced by group theory.

A finite group realized as the Galois group of a tamely ramified extension
of the rationals needs at least rank(G) ramified primes: Minkowski rules
out the unramified case and tame inertia subgroups are cyclic, so one
cyclic generator per ramified prime must generate the group. Construction
certificates witness the converse, so for every certificate-built group the
minimal count is exactly the rank.

The module also computes the classical upper bound read off the lower
central series: the sum of the ranks of the series factors with one factor
omitted. Which factor to omit is ambiguous in the sources, so both readings
are computed and labeled, never silently chosen.

Everything here is group theory plus bookkeeping about which claims carry a
certificate; no number fields are touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from .errors import PgfError
from .family import (
    Cert,
    cert_prime,
    declared_rank,
    eval_cert,
    parse_cert,
    serialize_cert,
)
from .group import PermGroup
from .ops import factor_ranks, group_prime, lower_central_series, rank

RANK_LOWER_BOUND_NOTE = (
    "lower bound: the rationals admit no nontrivial unramified extension "
    "(Minkowski), and in a tamely ramified Galois extension every inertia "
    "subgroup is cyclic, so the group is generated by one cyclic inertia "
    "generator per ramified prime; a group of rank r therefore needs at "
    "least r ramified primes"
)

@dataclass(frozen=True)
class RamReport:
    """Minimal-ramification numbers for one certificate-built group.

    `minimal_count_claim` is exact because the construction certificate
    witnesses that rank(G) primes suffice; it must equal the rank.
    """

    descriptor: str
    rank: int
    rank_lower_bound_note: str
    plans_bound_excluding_first: int
    plans_bound_excluding_last: int
    minimal_count_claim: int

    def __post_init__(self):
        if self.minimal_count_claim != self.rank:
            raise PgfError(
                f"claimed minimal count {self.minimal_count_claim} "
                f"disagrees with rank {self.rank} for {self.descriptor}"
            )

    def to_json_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "rank": self.rank,
            "rank_lower_bound_note": self.rank_lower_bound_note,
            "plans_ex_first": self.plans_bound_excluding_first,
            "plans_ex_last": self.plans_bound_excluding_last,
            "minimal_count_claim": self.minimal_count_claim,
        }

    def text(self) -> str:
        lines = [
            f"group: {self.descriptor}",
            f"rank: {self.rank}",
            f"minimal ramified primes: {self.minimal_count_claim}",
            f"series bound, first factor omitted: "
            f"{self.plans_bound_excluding_first}",
            f"series bound, last factor omitted: "
            f"{self.plans_bound_excluding_last}",
            f"note: {self.rank_lower_bound_note}",
        ]
        return "\n".join(lines)


def plans_bound(g: PermGroup, l: Optional[int] = None) -> Tuple[int, int]:
    """Both readings of the lower-central-series bound on ramified primes.

    Let r_1, ..., r_c be the ranks of the successive factors of the lower
    central series. Returns (sum without r_1, sum without r_c). With a
    single factor (abelian groups) the second sum keeps it: dropping the
    only factor would report 0, below the always-attainable rank bound,
    which no reading of the series bound intends; the value is then the
    rank itself. Each r_i is read as a Frattini index, with no quotient
    group built: Phi(G_i/G_{i+1}) = Phi(G_i)G_{i+1}/G_{i+1} in an l-group,
    so r_i = log_l |G_i : Phi(G_i)G_{i+1}|.
    """
    if g.order == 1:
        raise PgfError("series bound needs a nontrivial group")
    if l is None:
        l = group_prime(g)
    ser = lower_central_series(g)
    if ser.orders[-1] != 1:
        raise PgfError("group is not nilpotent")
    ranks = factor_ranks(ser, l)
    ex_first = sum(ranks[1:])
    ex_last = sum(ranks[:-1]) if len(ranks) > 1 else ranks[0]
    return ex_first, ex_last


def min_ramified_primes(c: Union[Cert, str]) -> RamReport:
    """Report for a certificate-built group; the claim equals the rank.

    Three rank computations must agree: the one declared by the
    certificate structure, the Frattini-quotient rank of the evaluated
    permutation group, and the claim placed in the report.
    """
    cert = parse_cert(c) if isinstance(c, str) else c
    label = serialize_cert(cert)
    g = eval_cert(cert)
    l = cert_prime(cert)
    structural = declared_rank(cert)
    computed = rank(g, l)
    if structural != computed:
        raise PgfError(
            f"structural rank {structural} disagrees with computed rank "
            f"{computed} for {label}"
        )
    ex_first, ex_last = plans_bound(g, l)
    return RamReport(
        descriptor=label,
        rank=computed,
        rank_lower_bound_note=RANK_LOWER_BOUND_NOTE,
        plans_bound_excluding_first=ex_first,
        plans_bound_excluding_last=ex_last,
        minimal_count_claim=structural,
    )


_TABLE_COLUMNS = (
    "certificate",
    "order",
    "rank",
    "plans_ex_first",
    "plans_ex_last",
    "gap_first",
    "gap_last",
)


def compare_bounds(certs: Union[Cert, str, Iterable]) -> str:
    """Text table comparing rank with both series-bound variants.

    Accepts one certificate or an iterable; rows appear in input order.
    The gap columns are signed (bound minus rank), so a negative entry
    shows a variant undercutting the rank rather than hiding it.
    """
    if isinstance(certs, str) or not isinstance(certs, Iterable):
        certs = [certs]
    rows: List[tuple] = []
    for item in certs:
        cert = parse_cert(item) if isinstance(item, str) else item
        g = eval_cert(cert)
        l = cert_prime(cert)
        rk = rank(g, l)
        ex_first, ex_last = plans_bound(g, l)
        rows.append(
            (
                serialize_cert(cert),
                g.order,
                rk,
                ex_first,
                ex_last,
                ex_first - rk,
                ex_last - rk,
            )
        )
    return _render_table(rows)


def _render_table(rows: List[tuple]) -> str:
    cells = [tuple(str(v) for v in row) for row in rows]
    widths = [
        max(len(_TABLE_COLUMNS[i]), *(len(r[i]) for r in cells))
        if cells
        else len(_TABLE_COLUMNS[i])
        for i in range(len(_TABLE_COLUMNS))
    ]
    def fmt(values):
        first = values[0].ljust(widths[0])
        rest = [v.rjust(w) for v, w in zip(values[1:], widths[1:])]
        return "  ".join([first] + rest).rstrip()

    out = [fmt(_TABLE_COLUMNS)]
    out.extend(fmt(r) for r in cells)
    return "\n".join(out)
