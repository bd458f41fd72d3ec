#!/usr/bin/env python3
"""Generate the complete group catalogues of order 32 and 81 as .pc files.

Method: every group G of order p**(n+1) has a central subgroup Z = <z> of
order p, since the centre of a p-group is nontrivial, and G/Z is some
group P of order p**n in the bundled catalogue one order down. Lifting
P's pc generators g1..gn to G and appending z as generator n+1 turns each
relation of P into the same relation times a power of z (z is central, so
the power can be moved to the end). Hence G has a consistent pc
presentation of the form P's relations plus a tail z^a on every power
relation and z^b on every commutator relation, with z central of order p.
Trying every tail vector on every presentation of the smaller catalogue
(`central_extensions`) and keeping the consistent ones therefore reaches
every isomorphism type of order p**(n+1), with repetition. The tails go
through the census chunk route: chunks sized as the census sizes them
(`census._chunk_size`), each tabulated in one batch and its non-abelian
tables climbed in one shared lattice climb (`census._prepare`), so the
fingerprints read lattices that are already built.

Deduplication: candidates are bucketed by `fingerprint`, a tuple of
isomorphism invariants, and the first candidate per key is kept. Equal
groups have equal keys, so the number of distinct keys is at most the
number of isomorphism types. The classical counts (51 groups of order 32,
15 of order 81) are asserted: when they are reached, each key names
exactly one type and no two types were merged. A key too weak to separate
some pair of types fails that assertion rather than dropping a group.

Safety net on export: the written text is parsed back, every block is
tabulated (which rejects an inconsistent presentation) and its key must
equal the key of the class it was written for.

Run from the repository root after installing the package:

    python3 tools/generate_small_groups.py
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from collections import Counter

import numpy as np

from pgf.arith import exact_log
from pgf.census import _chunk_size, _prepare
from pgf.datasets import load_fixture
from pgf.errors import PgfError
from pgf.pc import PcPresentation, parse_pc_text, serialize_pc
from pgf.table import CayleyTable

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "pgf", "data")

TARGETS = (
    # (source fixture, prime, expected class count, output name)
    ("o16.pc", 2, 51, "o32.pc"),
    ("o27.pc", 3, 15, "o81.pc"),
)


def fingerprint(ct: CayleyTable) -> tuple:
    """Isomorphism invariants; distinct keys mean non-isomorphic groups."""
    orders = ct.element_orders()
    conj = ct.conj()
    class_sizes = sorted(len(np.unique(conj[:, x])) for x in range(ct.n))
    p = ct.prime
    powers = ct.pow_map(p)
    pair_hist = sorted((int(orders[x]), int(orders[powers[x]])) for x in range(ct.n))
    center = ct.center_ids()
    # fiber sizes of the p-th power map separate pairs that agree on
    # everything else (seen at order 32)
    fibers = sorted(Counter(Counter(powers.tolist()).values()).items())
    # subgroup counts by (order, normal, abelian) separate the two pairs
    # of order-32 groups that agree on all of the above
    lat = ct.lattice()
    normal = np.zeros(len(lat.subgroups), dtype=bool)
    normal[lat.normalised_by(lat.subgroups, ct.gen_ids)] = True
    subgroups = Counter(zip(lat.orders.tolist(), normal.tolist(), lat.abelian.tolist()))
    return (
        ct.n,
        tuple(sorted(Counter(orders.tolist()).items())),
        tuple(class_sizes),
        tuple(pair_hist),
        tuple(fibers),
        len(center),
        tuple(sorted(Counter(orders[list(center)].tolist()).items())),
        len(ct.frattini_ids()),
        ct.rank(),
        ct.derived_length(),
        ct.lcs_orders(),
        ct.lower_exp_orders(),
        tuple(sorted(subgroups.items())),
    )


def central_extensions(pres: PcPresentation):
    """Yield P's relations with a central generator z of order p appended
    and every tail z^a on the power and commutator relations, the zero
    tail (P x C_p) first, in itertools.product order."""
    p, n = pres.prime, pres.ngens
    pairs = [(j, i) for j in range(2, n + 1) for i in range(1, j)]
    zero = (0,) * n
    powers = [w or zero for w in pres.powers]
    comms = [pres.comms.get(pair, zero) for pair in pairs]
    for tail in itertools.product(range(p), repeat=n + len(pairs)):
        yield PcPresentation(
            p,
            n + 1,
            [w + (a,) for w, a in zip(powers, tail)],
            {pair: w + (b,) for pair, w, b in zip(pairs, comms, tail[n:])},
        )


def describe(ct: CayleyTable) -> str:
    """Short comment: abelian type, or center/exponent for the rest."""
    orders = ct.element_orders()
    if ct.is_abelian_ids(range(ct.n)):
        p = ct.prime
        sol = [int((orders <= p**j).sum()) for j in range(12) if p**j <= ct.n]
        logs = [exact_log(s, p) for s in sol]
        height = [logs[j] - logs[j - 1] for j in range(1, len(logs))]
        # height[j-1] counts cyclic factors of exponent >= j; conjugating
        # the partition recovers the factor exponents themselves
        parts = sorted(
            (sum(1 for h in height if h >= i) for i in range(1, max(height) + 1)),
            reverse=True,
        )
        return "x".join(f"C{p**e}" for e in parts)
    return (
        f"nonabelian, center {len(ct.center_ids())}, "
        f"exponent {int(orders.max())}"
    )


def classify(source: str, p: int, expected: int) -> list:
    """(key, presentation) of one representative per isomorphism type of
    the central extensions of the groups in `source`, sorted by key."""
    print(f"[{source}] enumerating central extensions ...", flush=True)
    t0 = time.perf_counter()
    classes: dict = {}
    tried = consistent = 0
    for base in load_fixture(source):
        # the tails of a base share its prime and generator count, so they
        # form census chunks
        tails = central_extensions(base)
        size = _chunk_size(base.order * base.prime)
        while chunk := list(itertools.islice(tails, size)):
            tried += len(chunk)
            for pres, ct, _ in _prepare(chunk):
                if isinstance(ct, PgfError):  # inconsistent tails
                    continue
                consistent += 1
                classes.setdefault(fingerprint(ct), pres)
    dt = time.perf_counter() - t0
    print(
        f"[{source}] {tried} tail vectors, {consistent} consistent -> "
        f"{len(classes)} classes in {dt:.1f}s"
    )
    if len(classes) != expected:  # a raise, so that python -O keeps the gate
        raise RuntimeError(f"expected {expected} isomorphism classes, found {len(classes)}")
    return sorted(classes.items())


def export(classes: list, order: int, p: int) -> str:
    lines = [
        f"# Groups of order {order}, prime {p} (all {len(classes)}).",
        f"# Derived by central extension of the bundled order-{order // p}",
        "# catalogue (tools/generate_small_groups.py): every group has a",
        "# central subgroup of order p, so trying every relation tail over",
        "# the smaller catalogue reaches every isomorphism type; one group",
        "# is kept per invariant key and the classical class count is",
        "# asserted, so the keys separate the types. Each block is",
        "# consistency-checked and its key rechecked after writing.",
    ]
    for idx, (_, pres) in enumerate(classes, start=1):
        pres = PcPresentation(p, pres.ngens, pres.powers, pres.comms, group_id=(order, idx))
        block = serialize_pc(pres).splitlines()
        block[0] = f"{block[0]}    # {describe(CayleyTable.from_pc(pres))}"
        lines.append("")
        lines.extend(block)
    text = "\n".join(lines) + "\n"
    for (key, _), pres in zip(classes, parse_pc_text(text), strict=True):
        if fingerprint(CayleyTable.from_pc(pres)) != key:
            raise RuntimeError(f"{pres.group_id}: written presentation does not match its class")
    return text


def main() -> int:
    for source, p, expected, out_name in TARGETS:
        classes = classify(source, p, expected)
        order = classes[0][1].order
        text = export(classes, order, p)
        path = os.path.normpath(os.path.join(OUT_DIR, out_name))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[{out_name}] wrote {len(classes)} groups to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
