"""Write (or check) the frozen reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py           # regenerate every reference
    python3 perfbench/make_reference.py --check   # compare, write nothing

Each workload runs once on seed 0 and its canonical items are tested
against facts that do not come from pgf before they are written: the
classical group counts of orders 32 and 81, the known subgroup counts of
the heavy groups, the structural order and rank of every direct-product and
wreath certificate, and the claims expected to pass or be skipped. The
benchmark then compares every pass on every seed with these files, so a
reference is regenerated only when an output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import REFERENCE_DIR, WORKLOADS, load_reference  # noqa: E402

# the classical counts of groups of order 32 (51) and 81 (15), and the
# subgroup counts of the heavy groups recorded in ROADMAP.md
GROUP_COUNTS = {"32": 51, "81": 15}
HEAVY_FACTS = {
    "D(C(2,1),D(C(2,1),D(C(2,1),D(C(2,1),W(C(2,1),C(2,1))))))": (128, 7420),
    "D(C(2,2),D(C(2,1),W(C(2,1),C(2,2))))": (512, 8946),
    "D(C(3,1),D(C(3,1),W(C(3,1),C(3,1))))": (729, 3820),
}
CORPUS_SIZE = 110
VERIFY_STATUSES = {
    "1": "PASS", "2": "PASS", "3": "SKIPPED", "4": "PASS",
    "5": "PASS", "6": "PASS", "7": "PASS", "8": "SKIPPED",
}


def structural(cert):
    """(order, rank) of a C/D/W certificate by arithmetic alone; None for
    quotients. Wreath rank is additive (claim 1 of the paper)."""
    from pgf.family import Cyclic, DirectProduct, Wreath

    if isinstance(cert, Cyclic):
        return cert.prime**cert.exponent, 1
    if isinstance(cert, (DirectProduct, Wreath)):
        a, b = (cert.left, cert.right) if isinstance(cert, DirectProduct) else (cert.inner, cert.outer)
        sa, sb = structural(a), structural(b)
        if sa is None or sb is None:
            return None
        if isinstance(cert, DirectProduct):
            return sa[0] * sb[0], sa[1] + sb[1]
        return sa[0] ** sb[0] * sb[0], sa[1] + sb[1]
    return None


def check_facts(name, items):
    """Problems with `items` that independent facts reveal."""
    bad = []
    if name == "census-small":
        for order, count in GROUP_COUNTS.items():
            got = sum(1 for k in items if k.split("/")[0] == order)
            if got != count:
                bad.append(f"{got} groups of order {order}, expected {count}")
        for key, (_, rank, dl, semi, _) in items.items():
            if semi != "true":
                bad.append(f"group {key} is not semiabelian")
            if int(dl) > int(rank):
                bad.append(f"group {key}: derived length above rank")
    elif name == "lattice-heavy":
        for cert, (order, subgroups) in HEAVY_FACTS.items():
            got = items.get(cert, {})
            if (got.get("order"), got.get("subgroups")) != (order, subgroups):
                bad.append(f"{cert}: order/subgroups {got.get('order')}/{got.get('subgroups')}")
            if not (got.get("semiabelian") and got.get("witness_valid")):
                bad.append(f"{cert}: no valid decomposition witness")
    elif name == "bounds-corpus":
        from pgf.family import parse_cert

        if len(items) != CORPUS_SIZE:
            bad.append(f"{len(items)} certificates, expected {CORPUS_SIZE}")
        for cert, cells in items.items():
            order, rank, ex_first, ex_last, gap_first, gap_last = map(int, cells)
            if (gap_first, gap_last) != (ex_first - rank, ex_last - rank):
                bad.append(f"{cert}: gap columns disagree with bounds")
            want = structural(parse_cert(cert))
            if want is not None and want != (order, rank):
                bad.append(f"{cert}: order/rank {order}/{rank}, structure says {want}")
    elif name == "verify-gate":
        got = {k: v[1] for k, v in items.items()}
        if got != VERIFY_STATUSES:
            bad.append(f"claim statuses {got}")
    return bad


def write_reference(name, items):
    """JSON with one item per line, so a changed output shows as one line
    in a diff."""
    rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(items.items())]
    text = '{"workload": %s, "items": {\n%s\n}}\n' % (json.dumps(name), ",\n".join(rows))
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
        fh.write(text)


def compute(workload, workdir):
    inputs = workload.make_inputs(0, workdir)
    state = workload.setup(json.loads(json.dumps(inputs)))
    passdir = tempfile.mkdtemp(dir=workdir)
    return workload.canonical(workload.job(state, passdir))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare only")
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(HERE, "out"))
    status = 0
    try:
        for name in args.workloads:
            t0 = time.perf_counter()
            items = compute(WORKLOADS[name], workdir)
            problems = check_facts(name, items)
            if args.check and items != load_reference(name):
                problems.append("output differs from the frozen reference")
            for p in problems:
                print(f"{name}: {p}", file=sys.stderr)
            status |= bool(problems)
            if not problems and not args.check:
                write_reference(name, items)
            print(f"{name}: {len(items)} items, {'FAILED' if problems else 'ok'} "
                  f"({time.perf_counter() - t0:.1f}s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
