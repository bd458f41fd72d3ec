"""One pass of one workload, in a fresh process.

Started by run.py; not meant to be run by hand. Arguments (all required
except the flags):

    job.py WORKLOAD INPUTS_JSON PASS_DIR RESULT_JSON [--setup-only] [--trace]

The process imports the pgf layers and sets up the workload's inputs, then
records `time.monotonic()` as the moment inputs were ready (run.py measures
set-up from just before it started the process; the clock is system-wide).
With --setup-only it stops there. Otherwise it installs the span recorder
if --trace is given, runs the job once, measures its wall time and peak
RSS, and checks the outputs against the frozen reference. Everything is
written to RESULT_JSON.
"""

import hashlib
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import LAYERS, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, failed_items, load_reference  # noqa: E402


def main(argv):
    name, inputs_path, passdir, result_path = argv[:4]
    setup_only = "--setup-only" in argv[4:]
    trace = "--trace" in argv[4:]

    modules = [importlib.import_module(f"pgf.{layer}") for layer in LAYERS]
    pgf_file = sys.modules["pgf"].__file__
    if not os.path.abspath(pgf_file).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported pgf from {pgf_file}, not from this checkout")
    workload = WORKLOADS[name]
    with open(inputs_path, encoding="utf-8") as fh:
        state = workload.setup(json.load(fh))
    t_ready = time.monotonic()
    result = {"t_ready": t_ready}
    if not setup_only:
        result.update(run_pass(workload, state, passdir, modules, trace))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run_pass(workload, state, passdir, modules, trace):
    recorder = None
    if trace:
        recorder = SpanRecorder()
        recorder.install(modules)
    clock = time.perf_counter
    cpu0 = time.process_time()
    t0 = clock()
    raw = workload.job(state, passdir)
    wall_s = clock() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb}
    if recorder is not None:
        # snapshot before any follow-up work adds spans
        out["spans"] = {k: list(v) for k, v in recorder.stats.items()}
        out["durations"] = {k: list(v) for k, v in recorder.durations.items()}
        out["counters"] = dict(recorder.counters)
        out["layer_self_s"] = recorder.layer_self_s()
        out["outside_s"] = wall_s - recorder.top_level_s
    extra_metrics, extra_raw = workload.after_job(state, passdir, clock)

    reference = load_reference(workload.name)
    items = workload.canonical(raw)
    bad = set(failed_items(items, reference))
    if extra_raw is not None:
        # a second view of the same outputs (the census resume) must agree too
        bad.update(failed_items(workload.canonical(extra_raw), reference))
    canonical_text = json.dumps(items, sort_keys=True)
    out.update(
        attempted=len(set(reference) | set(items)),
        failed=len(bad),
        failed_keys=sorted(bad)[:20],
        digest=hashlib.sha256(canonical_text.encode()).hexdigest(),
        layer_metrics={**workload.layer_metrics(raw), **extra_metrics},
    )
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
