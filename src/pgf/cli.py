"""Command-line driver.

Subcommands map one-to-one onto the library layers: build and bounds
evaluate construction certificates, semiabelian runs the decomposition
search, census batches a power-commutator dataset, ramification prints
the minimal-count report and verify runs the claims gate.

Exit codes: 0 success, 1 computation failure (with a diagnostic naming
the certificate or group), 2 usage errors (argparse's own convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .errors import PgfError

GRAMMAR_HELP = """\
certificate grammar:
  C(l,k)          cyclic group of order l^k (l prime, k >= 1)
  D(a,b)          direct product of certificates a and b
  W(a,b)          regular wreath product a wr b (|b| copies of a)
  Q(c;w1,...,wn)  quotient of c by the normal closure of the words wi;
                  valid only when that closure lies inside the Frattini
                  subgroup of c, which keeps the rank unchanged
  word syntax: factors joined by '*'; a factor is g<i> (i-th generator,
  optional ^<exponent>) or a commutator [w1,w2]

examples:
  pgf build "W(C(2,1),C(2,1))"          -> order=8 rank=2 dl=2
  pgf semiabelian "W(C(2,1),C(2,1))"    -> verdict plus a witness chain
  pgf verify                            -> claim-by-claim PASS/FAIL table
  pgf verify --json                     -> the same claims as a JSON array
"""


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgf",
        description="finite l-group engine: certificates, decomposition "
        "searches, dataset censuses and claim verification",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build",
        help="evaluate a certificate and print order, rank, derived length",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_build.add_argument("cert", help="construction certificate")

    p_semi = sub.add_parser(
        "semiabelian",
        help="decide the decomposition property for a certificate or a "
        "pcfile#index group",
    )
    p_semi.add_argument(
        "target", help="certificate text, or <path.pc>#<index> into a dataset"
    )

    p_census = sub.add_parser(
        "census", help="classify every group in a power-commutator file"
    )
    p_census.add_argument("pcfile", help="dataset path (one order, one prime)")
    p_census.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="resumable record cache directory (default: $PGF_CACHE)",
    )
    p_census.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="worker processes (default: available parallelism)",
    )
    p_census.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="report format (default: json)",
    )

    p_ram = sub.add_parser(
        "ramification",
        help="minimal ramified-prime report for a certificate",
    )
    p_ram.add_argument("cert", help="construction certificate")

    p_bounds = sub.add_parser(
        "bounds",
        help="compare rank against both series-bound variants",
    )
    p_bounds.add_argument(
        "certs", nargs="+", metavar="cert", help="one or more certificates"
    )

    p_verify = sub.add_parser(
        "verify", help="run the claims gate and print one line per claim"
    )
    p_verify.add_argument(
        "--data",
        metavar="DIR",
        default=None,
        help="directory of external *.pc datasets (default: $PGF_DATA)",
    )
    p_verify.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="census cache directory passed through to dataset claims",
    )
    p_verify.add_argument(
        "--long",
        action="store_true",
        help="include the long-running extended counts claim",
    )
    p_verify.add_argument(
        "--json",
        action="store_true",
        help="print a JSON array of {number, name, status, detail, "
        "elapsed_s} instead of one line per claim",
    )
    return parser


def _cmd_build(args) -> int:
    from .family import declared_rank, eval_cert, parse_cert
    from .ops import derived_length

    cert = parse_cert(args.cert)
    g = eval_cert(cert)  # checks the declared rank against the computed one
    print(f"order={g.order} rank={declared_rank(cert)} dl={derived_length(g)}")
    return 0


def _load_target(target: str):
    """The Cayley table and label of a certificate, or of path.pc#index in
    a dataset file. A presentation is tabulated with CayleyTable.from_pc,
    the census route, which rejects an inconsistent presentation."""
    from .pc import parse_pc_file
    from .table import CayleyTable

    if "#" in target:  # never part of a certificate
        path, _, index_text = target.rpartition("#")
        presentations = parse_pc_file(path)
        try:
            index = int(index_text)
        except ValueError:
            raise PgfError(f"bad group index {index_text!r} in {target!r}")
        matches = [p for p in presentations if p.group_id[1] == index]
        if not matches:
            raise PgfError(f"no group with index {index} in {path}")
        if len(matches) > 1:
            ids = ", ".join(str(p.group_id) for p in matches)
            raise PgfError(f"index {index} names several groups in {path}: {ids}")
        return CayleyTable.from_pc(matches[0]), f"{path}#{index}"
    from .family import eval_cert, parse_cert, serialize_cert

    cert = parse_cert(target)
    return CayleyTable.from_perm_group(eval_cert(cert)), serialize_cert(cert)


def _cmd_semiabelian(args) -> int:
    from .family import semiabelian_table, validate_witness

    ct, label = _load_target(args.target)
    verdict = semiabelian_table(ct)
    if verdict.flag:
        if not validate_witness(ct, verdict.witness):
            raise PgfError(f"witness for {label} failed the independent recheck")
        print(f"{label}: semiabelian=true")
        remaining = ct.n
        for step, (a_ids, h_ids) in enumerate(verdict.witness, start=1):
            print(
                f"  step {step}: group of order {remaining} = A * H with "
                f"A abelian normal of order {len(a_ids)}, H of order {len(h_ids)}"
            )
            remaining = len(h_ids)
    else:
        stats = verdict.search or {}
        print(f"{label}: semiabelian=false")
        if stats:
            print(
                f"  exhausted {stats.get('pairs_tested', 0)} candidate pairs "
                f"over {stats.get('classes_examined', 0)} subgroup classes"
            )
    return 0


def _cmd_census(args) -> int:
    from .census import emit_report, run_census

    summary, records = run_census(
        args.pcfile, cache_dir=args.cache, jobs=args.jobs
    )
    print(emit_report(records, args.format, failures=summary.failures), end="")
    if args.format == "json":
        print()
    if summary.failures:
        for entry in summary.failures:
            print(
                f"error: group ({entry['order']},{entry['index']}): "
                f"{entry['error']}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_ramification(args) -> int:
    from .ramification import min_ramified_primes

    print(min_ramified_primes(args.cert).text())
    return 0


def _cmd_bounds(args) -> int:
    from .ramification import compare_bounds

    print(compare_bounds(args.certs))
    return 0


def _cmd_verify(args) -> int:
    from .verify import format_claims, run_claims

    results = run_claims(
        data_dir=args.data,
        cache_dir=args.cache,
        include_long=True if args.long else None,
    )
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
    else:
        print(format_claims(results))
    return 0 if all(r.status != "FAIL" for r in results) else 1


_HANDLERS = {
    "build": _cmd_build,
    "semiabelian": _cmd_semiabelian,
    "census": _cmd_census,
    "ramification": _cmd_ramification,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def dispatch(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except PgfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`pgf verify | head -n 1`): point
        # stdout at devnull so the flush at exit cannot fail again, and exit
        # 1 as Python does on EPIPE (the CPython docs' SIGPIPE recipe)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
