"""Benchmark for pgf: whole jobs timed end to end, and a traced run per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: census-small, lattice-heavy, bounds-corpus, verify-gate (see
README.md in this directory). The run is closed-loop and single-threaded:
one pass of the job at a time, each pass in a fresh process (job.py), so no
in-process cache survives from one pass to the next. Before the passes,
five set-up-only processes measure set-up time. Passes repeat until the
next one would end after S seconds; the first always runs.

With --trace 0 every pass runs untraced and the run reports the end-to-end
metrics named in BENCHMARK.json (medians over passes). With --trace 1 each
round runs one untraced and one traced pass, and the run reports the
per-layer metrics from the traced passes plus the tracing overhead.

Every pass checks its outputs against the frozen reference in reference/.
The last line of standard output is one JSON object: correct, attempted,
failed (items over all passes) and metrics. A full record, with machine
facts and every pass, goes to perfbench/out/. Exits 2 without a result
when the checkout holds no pgf sources.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

SETUP_PROBES = 5
# the whole run, the pass in flight included, ends before this many seconds
HARD_LIMIT_S = 170.0
# configuration that would change what a pass computes or reads
DROPPED_ENV = ("PGF_DATA", "PGF_CACHE", "PGF_RUN_LONG", "PGF_KERNEL", "PYTHONPATH")
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# span key -> percentiles of its individual durations, reported in ms
PERCENTILES = {
    "census.classify_presentation": (50, 84),
    "ramification.compare_bounds": (50, 90),
}
# per-layer metrics that only some workloads produce; the others report 0
WORKLOAD_ONLY = {
    "census.resume_s",
    "table.lattice.subgroups",
    "ops.quotient_group.index_sum",
    "family.witness_steps",
    *(f"{k}.p{q}_ms" for k, qs in PERCENTILES.items() for q in qs),
    *(f"verify.claim{n}.elapsed_s" for n in range(1, 9)),
}


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def machine_facts():
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_sha": None,
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(
                ["git", "-C", ROOT, *args], capture_output=True, text=True, check=True
            ).stdout.strip()

        try:
            facts["git_sha"] = git("rev-parse", "HEAD")
            facts["git_dirty"] = bool(git("status", "--porcelain"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return facts


class Runner:
    """Starts job.py processes one at a time and collects their results."""

    def __init__(self, workload, run_dir, inputs_path, start):
        self.workload = workload
        self.run_dir = run_dir
        self.inputs_path = inputs_path
        self.start = start
        self.env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
        self.env.update(SINGLE_THREAD_ENV)

    def spawn(self, setup_only=False, trace=False):
        passdir = tempfile.mkdtemp(dir=self.run_dir)
        result_path = os.path.join(passdir, "result.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "job.py"),
            self.workload.name,
            self.inputs_path,
            passdir,
            result_path,
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            _, err = proc.communicate(
                timeout=max(1.0, self.start + HARD_LIMIT_S - t_spawn)
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": "pass timed out", "traced": trace}
        t_end = time.monotonic()
        try:
            if proc.returncode != 0:
                return {"error": err.strip()[-2000:], "traced": trace}
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        result["setup_s"] = result.pop("t_ready") - t_spawn
        result["process_s"] = t_end - t_spawn
        result["traced"] = trace
        return result


def run_passes(runner, seconds, trace):
    deadline = runner.start + seconds
    probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
    passes, round_s = [], []
    while True:
        t0 = time.monotonic()
        round_ = [runner.spawn()]
        if trace:
            round_.append(runner.spawn(trace=True))
        passes += round_
        round_s.append(time.monotonic() - t0)
        if any("error" in p for p in round_):
            break
        if time.monotonic() + median(round_s) > deadline:
            break
    return probes, passes


def end_to_end(probes, passes):
    plain = [p for p in passes if not p["traced"] and "error" not in p]
    setups = [p["setup_s"] for p in probes + passes if "error" not in p]
    return {
        "setup_s": median(setups),
        "wall_s": median([p["wall_s"] for p in plain]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traced"] and "error" not in p]
    traced = [p for p in passes if p["traced"] and "error" not in p]
    values = {}

    def put(name, samples):
        values[name] = median(samples)

    def put_count(name, samples):
        values[name] = statistics.median_low(samples)

    for key in sorted({k for p in traced for k in p["spans"]}):
        stats = [p["spans"].get(key, [0, 0.0, 0.0]) for p in traced]
        put_count(f"{key}.calls", [s[0] for s in stats])
        put(f"{key}.self_s", [s[2] for s in stats])
    for layer in LAYERS:
        put(f"{layer}.self_s", [p["layer_self_s"][layer] for p in traced])
    for key, qs in PERCENTILES.items():
        for q in qs:
            samples = [
                1000 * percentile(p["durations"][key], q)
                for p in traced
                if p["durations"].get(key)
            ]
            if samples:
                put(f"{key}.p{q}_ms", samples)
    for name in sorted({k for p in traced for k in p["counters"]}):
        put_count(name, [p["counters"].get(name, 0) for p in traced])
    for name in sorted({k for p in traced for k in p["layer_metrics"]}):
        put(name, [p["layer_metrics"].get(name, 0.0) for p in traced])
    put("trace.outside_s", [p["outside_s"] for p in traced])
    values["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - median(
        [p["wall_s"] for p in plain]
    )
    return values


def select(declared, values):
    """The metrics BENCHMARK.json declares, in its order. A declared span
    metric of a function this code no longer has reads 0, as does a
    workload-specific metric on another workload."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name in WORKLOAD_ONLY or name.endswith((".calls", ".self_s")):
            value = 0
        else:
            raise SystemExit(f"BENCHMARK.json names metric {name!r}, which this run does not produce")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "pgf", "__init__.py")):
        print(f"no pgf sources under {ROOT}/src; run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    items_per_pass = len(load_reference(workload.name))
    facts = machine_facts()

    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        inputs_path = os.path.join(run_dir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(workload.make_inputs(args.seed, run_dir), fh)
        runner = Runner(workload, run_dir, inputs_path, start)
        probes, passes = run_passes(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = failed = 0
    for p in passes:
        if "error" in p:
            attempted += items_per_pass
            failed += items_per_pass
        else:
            attempted += p["attempted"]
            failed += p["failed"]
    digests = {p.get("digest") for p in passes}
    errors = [p["error"] for p in probes + passes if "error" in p]
    correct = failed == 0 and not errors and len(digests) == 1

    if args.trace:
        values = per_layer(passes)
        declared = spec["per_layer"]
    else:
        values = end_to_end(probes, passes)
        declared = spec["end_to_end"]
    metrics = select(declared, values)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_probes": probes,
        "passes": passes,
        "metrics": metrics,
        "all_values": values,
    }
    record_path = os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    n_plain = sum(1 for p in passes if not p["traced"])
    print(f"pgf benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(
        f"passes: {n_plain} untraced, {len(passes) - n_plain} traced, "
        f"{len(probes)} set-up probes; {items_per_pass} items per pass"
    )
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6f} ({failed} of {attempted} items)")
    for err in errors:
        print(f"error: {err.splitlines()[-1] if err else 'no output'}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
