"""The four benchmark workloads.

Each workload makes its inputs from the seed, sets up (imports are done by
the caller; inputs are parsed here), runs one job and turns the job's raw
output into canonical items: a dict from item key to a JSON value, with
timings removed and processing order forgotten, so that a run on any seed
compares against the same frozen reference in ``reference/<name>.json``.

Why these four, and what each one stresses, is in README.md next to this
file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA_DIR = os.path.join(ROOT, "src", "pgf", "data")
REFERENCE_DIR = os.path.join(HERE, "reference")

CENSUS_CATALOGUES = ("o32.pc", "o81.pc")

HEAVY_CERTS = (
    "D(C(2,1),D(C(2,1),D(C(2,1),D(C(2,1),W(C(2,1),C(2,1))))))",
    "D(C(2,2),D(C(2,1),W(C(2,1),C(2,2))))",
    "D(C(3,1),D(C(3,1),W(C(3,1),C(3,1))))",
)

BOUNDS_MAX_CONSTRUCTORS = 2


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)["items"]


def shuffle_pc_text(text: str, rng: random.Random) -> str:
    """The same catalogue with its GROUP blocks in a random order.

    Lines before the first GROUP (the header comment) stay first; each
    block keeps its own lines, comments included."""
    lines = text.splitlines(keepends=True)
    header, blocks, current = [], [], None
    for line in lines:
        word = line.split("#", 1)[0].split()
        if word[:1] == ["GROUP"]:
            current = [line]
            blocks.append(current)
        elif current is None:
            header.append(line)
        else:
            current.append(line)
    rng.shuffle(blocks)
    for block in blocks:
        if not block[-1].endswith("\n"):
            block[-1] += "\n"
    return "".join(header) + "".join("".join(b) for b in blocks)


class Workload:
    """Defaults: the seed changes nothing, there is no follow-up after the
    job, the raw output is already canonical, and it yields no per-layer
    metrics of its own."""

    name = ""

    def make_inputs(self, seed: int, workdir: str) -> dict:
        return {}

    def setup(self, inputs: dict):
        return inputs

    def job(self, state, passdir: str):
        raise NotImplementedError

    def after_job(self, state, passdir: str, clock):
        """Work after the timed job: (extra metrics, a second raw output
        that must match the reference too, or None)."""
        return {}, None

    def canonical(self, raw) -> dict:
        return raw

    def layer_metrics(self, raw) -> dict:
        return {}


class CensusSmall(Workload):
    """`pgf census` on the bundled order-32 and order-81 catalogues through
    the command-line dispatcher, with a fresh cache directory per pass."""

    name = "census-small"

    def make_inputs(self, seed: int, workdir: str) -> dict:
        rng = random.Random(seed)
        paths = []
        for catalogue in CENSUS_CATALOGUES:
            with open(os.path.join(DATA_DIR, catalogue), encoding="utf-8") as fh:
                text = fh.read()
            # same basename, so the provenance column matches the reference
            path = os.path.join(workdir, "inputs", catalogue)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(shuffle_pc_text(text, rng))
            paths.append(path)
        return {"pcfiles": paths}

    def setup(self, inputs: dict):
        return inputs["pcfiles"]

    def _census(self, pcfiles, cache_dir):
        """The CSV report of each file. A group that fails is missing from
        its report, which the reference check counts."""
        from pgf import cli

        reports = []
        for path in pcfiles:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.dispatch(
                    ["census", path, "--cache", cache_dir, "--jobs", "1", "--format", "csv"]
                )
            reports.append(out.getvalue())
        return reports

    def job(self, pcfiles, passdir: str):
        return self._census(pcfiles, os.path.join(passdir, "cache"))

    def after_job(self, pcfiles, passdir: str, clock):
        """Re-run on the warm cache: every record is read, none written."""
        t0 = clock()
        reports = self._census(pcfiles, os.path.join(passdir, "cache"))
        return {"census.resume_s": clock() - t0}, reports

    def canonical(self, reports) -> dict:
        items = {}
        for text in reports:
            rows = list(csv.reader(io.StringIO(text)))
            if not rows:
                continue
            header = rows[0]
            for row in rows[1:]:
                rec = dict(zip(header, row))
                rec.pop("elapsed_ms", None)
                key = f"{rec.pop('order', '?')}/{rec.pop('index', '?')}"
                items[key] = [rec.get(c) for c in ("provenance", "rank", "dl", "semiabelian", "screen")]
        return items


class LatticeHeavy(Workload):
    """Evaluate, tabulate, rank and derived length, full subgroup lattice,
    decomposition search and witness recheck on three large groups.

    The groups run in a fixed order whatever the seed: the peak RSS of a
    pass depends on the order (77 to 91 MB across orders), and a seed
    should not move a metric."""

    name = "lattice-heavy"

    def setup(self, inputs: dict):
        from pgf import family

        return [(text, family.parse_cert(text)) for text in HEAVY_CERTS]

    def job(self, parsed, passdir: str):
        return {text: self._one(cert) for text, cert in parsed}

    @staticmethod
    def _one(cert) -> dict:
        # a function of its own, so one group's table is released before
        # the next group's is built
        from pgf import family, table

        try:
            g = family.eval_cert(cert)
            ct = table.CayleyTable.from_perm_group(g)
            rank, dl = ct.rank(), ct.derived_length()
            subgroups = len(ct.lattice().subgroups)
            verdict = family.semiabelian_table(ct)
            valid = family.validate_witness(ct, verdict.witness)
        except Exception as exc:  # an item that raises counts as failed
            return {"error": repr(exc)}
        return {
            "order": g.order,
            "rank": rank,
            "dl": dl,
            "subgroups": subgroups,
            "semiabelian": verdict.flag,
            "witness_valid": valid,
            "witness": [[list(map(int, a)), list(map(int, h))] for a, h in verdict.witness or ()],
        }


class BoundsCorpus(Workload):
    """The ramification bounds table over the constructor-depth-2
    certificate corpus, one `compare_bounds` query per certificate."""

    name = "bounds-corpus"

    def make_inputs(self, seed: int, workdir: str) -> dict:
        return {"seed": seed}

    def setup(self, inputs: dict):
        from pgf import family

        corpus = list(family.certificate_corpus(max_constructors=BOUNDS_MAX_CONSTRUCTORS))
        random.Random(inputs["seed"]).shuffle(corpus)
        return corpus

    def job(self, corpus, passdir: str):
        from pgf import family, ramification

        out = []
        for cert in corpus:
            try:
                out.append([None, ramification.compare_bounds([cert])])
            except Exception as exc:  # an item that raises counts as failed
                out.append([family.serialize_cert(cert), repr(exc)])
        return out

    def canonical(self, out) -> dict:
        items = {}
        for label, text in out:
            if label is not None:
                items[label] = {"error": text}
                continue
            for line in text.splitlines()[1:]:
                cells = line.split()
                items[cells[0]] = cells[1:]
        return items


class VerifyGate(Workload):
    """The claims gate with no external data. The seed has no effect: the
    claims run in a fixed order on fixed inputs."""

    name = "verify-gate"

    def job(self, state, passdir: str):
        from pgf import verify

        return [
            [r.number, r.name, r.status, r.detail, r.elapsed_s]
            for r in verify.run_claims()
        ]

    def canonical(self, results) -> dict:
        return {str(n): [name, status, detail] for n, name, status, detail, _ in results}

    def layer_metrics(self, results) -> dict:
        return {f"verify.claim{n}.elapsed_s": s for n, _, _, _, s in results}


WORKLOADS = {
    w.name: w for w in (CensusSmall(), LatticeHeavy(), BoundsCorpus(), VerifyGate())
}


def failed_items(items: dict, reference: dict) -> list:
    """Keys whose output is missing, differs from the reference, or was not
    expected at all."""
    bad = [k for k, want in reference.items() if items.get(k) != want]
    bad += [k for k in items if k not in reference]
    return sorted(bad)
