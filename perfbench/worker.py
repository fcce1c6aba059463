"""Runs one workload in a process of its own and prints one JSON line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE, with src/ on
PYTHONPATH (run.py starts it so), which the processes it starts inherit.

Every workload is a closed loop with one client: the next case starts when
the previous one has finished. Timed passes repeat until the summed case
time reaches SECONDS; ``corpus`` and ``scale`` stop at whole passes,
``cold_cli`` at whole processes. Outputs are checked after each case's
timer stops: against an oracle the first time a case runs, and against
that first output on every later pass. With TRACE=1 the first half of the
time runs untraced and the second half under ``tracer.Tracer``.
"""

import glob
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

from vlsidesk import cli  # noqa: E402

import scale  # noqa: E402
import speed  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

# Highest of p90, p95, p99 and p99.9 with at least ten samples beyond it in a
# 30 s run on the machine the bounds were set on.
TAIL_PERCENTILE = {"corpus": 99, "cold_cli": 90, "scale": 95}
KERNEL_COUNTS = {
    "interconnect.downstream_cap_calls": "interconnect.RcTree.downstream_cap",
    "interconnect.path_to_root_calls": "interconnect.RcTree.path_to_root",
    "testability.logic_simulate_calls": "testability.logic_simulate",
    "testability.atpg_calls": "testability.atpg_exhaustive",
    "gates.evaluate_network_calls": "gates.evaluate_network",
    "device.square_law_current_calls": "device.square_law_current",
}


class Tally:
    """Latencies and outcomes of the timed cases of one loop, with the speed
    calibrations taken between them."""

    def __init__(self, scaler=None):
        self.latencies = []
        self.failed = 0
        self.first_diff = None
        self.passes = 0
        self.busy = 0.0
        self.scaler = scaler or speed.Scaler()

    def record(self, seconds, error, key):
        self.latencies.append(seconds)
        self.busy += seconds
        self.scaler.add(seconds)
        if error is not None:
            self.failed += 1
            if self.first_diff is None:
                self.first_diff = f"{key}: {error}"

    def scaled(self):
        return self.scaler.scale(self.latencies)

    def factor(self):
        """Time-weighted mean speed factor of the loop."""
        return sum(self.scaled()) / self.busy

    def cases_per_s(self):
        return (len(self.latencies) - self.failed) / sum(self.scaled())


def percentile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


# --- output checks -----------------------------------------------------------

def resolve(report, path):
    head, *rest = path.split(".")
    node = report["results"][head]["value"]
    for key in rest:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def check_expect(report, expect):
    """The corpus rule: numbers with "rel"/"abs" within tolerance, all else
    equal. Returns the first mismatch or None."""
    for path, spec in expect.items():
        try:
            got = resolve(report, path)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            return f"{path}: missing ({type(e).__name__}: {e})"
        want = spec["value"]
        if isinstance(want, (int, float)) and not isinstance(want, bool) \
                and ("rel" in spec or "abs" in spec):
            ok = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=spec.get("rel", 0.0), abs_tol=spec.get("abs", 0.0))
        else:
            ok = got == want
        if not ok:
            return f"{path} = {got!r}, want {want!r}"
    return None


# --- in-process workloads ----------------------------------------------------

def loop(items, execute, check, seconds, reference, tally):
    """Whole passes over ``items`` (key, payload, analysis) until the summed
    case time reaches ``seconds``."""
    while tally.busy < seconds:
        for key, payload, analysis in items:
            t0 = time.perf_counter()
            try:
                report, text = execute(analysis, payload)
                error = None
            except Exception as e:  # a failed case is counted, the run goes on
                error = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - t0
            if error is None:
                if key not in reference:
                    error = check(payload, report, text)
                    if error is None:
                        reference[key] = text
                elif text != reference[key]:
                    error = "output differs from the checked first pass"
            tally.record(elapsed, error, key)
        tally.passes += 1


def corpus_items(seed):
    paths = sorted(glob.glob(os.path.join(ROOT, "cases", "*.json")))
    random.Random(seed).shuffle(paths)
    items, expect = [], {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            case = json.load(fh)
        key = os.path.basename(path)
        expect[path] = case["meta"]["expect"]
        items.append((key, path, case["analysis"]))
    return items, expect


def run_corpus(path):
    report = cli.run_case(cli.load_case(path))
    return report, cli.render_json(report)


def in_process(workload, seed, seconds, trace):
    if workload == "corpus":
        items, expect = corpus_items(seed)

        def execute(analysis, path):
            return run_corpus(path)

        def check(path, report, text):
            return check_expect(report, expect[path])
        families = None
    else:
        cases = scale.generate(seed)
        items = [(f"{i}:{c.family}", c, c.case["analysis"]) for i, c in enumerate(cases)]
        families = [c.family for c in cases]

        def execute(analysis, sc):
            report = cli.run_case(sc.case)
            return report, cli.render_json(report)

        def check(sc, report, text):
            error = sc.check(report)
            if error is None and json.loads(text)["results"].keys() != report["results"].keys():
                error = "rendered results differ from the report"
            return error

    reference = {}
    plain = Tally()
    loop(items, execute, check, seconds / 2 if trace else seconds, reference, plain)
    out = summarize(workload, plain)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if families:
        out["families"] = family_shares(families, plain)
    if trace:
        tracer = Tracer()
        tracer.install()
        traced = Tally()
        try:
            loop(items, lambda analysis, payload: tracer.case(analysis, execute, analysis, payload),
                 check, seconds / 2, reference, traced)
        finally:
            tracer.uninstall()
        out["failed"] += traced.failed
        out["attempted"] += len(traced.latencies)
        out["first_diff"] = out["first_diff"] or traced.first_diff
        out["layers"] = layer_metrics(tracer.summary(), traced.passes,
                                      traced.factor())
        out["layers"]["trace.overhead_ratio"] = traced.cases_per_s() / plain.cases_per_s()
    return out


def family_shares(families, tally):
    per_pass = len(families)
    spent = {}
    for i, seconds in enumerate(tally.latencies):
        spent[families[i % per_pass]] = spent.get(families[i % per_pass], 0.0) + seconds
    total = sum(spent.values())
    return {f: {"cases_per_pass": families.count(f), "time_share": round(spent[f] / total, 4)}
            for f in sorted(spent)}


# --- cold CLI processes ------------------------------------------------------

def cold_cli(seed, seconds, trace):
    items, expect = corpus_items(seed)
    reference = {}
    for key, path, _ in items:              # the in-process render, checked
        report, text = run_corpus(path)
        error = check_expect(report, expect[path])
        reference[key] = (text.encode(), error)
    plain_cmd = [sys.executable, "-m", "vlsidesk.cli", "run"]
    traced_cmd = [sys.executable, os.path.join(HERE, "trace_cli.py")]
    subprocess.run(plain_cmd + [items[0][1]], cwd=ROOT, capture_output=True,
                   timeout=60)                                     # warm-up, untimed

    def spawn(tally, budget, cmd, summaries):
        i = 0
        while tally.busy < budget:
            key, path, analysis = items[i % len(items)]
            argv = cmd + ([path, analysis] if summaries is not None else [path])
            t0 = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60)
            elapsed = time.perf_counter() - t0
            want, error = reference[key]
            if error is None and proc.returncode != 0:
                error = f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
            elif error is None and proc.stdout != want:
                error = "stdout differs from the in-process render"
            tally.record(elapsed, error, key)
            if summaries is not None and proc.returncode == 0:
                summaries.append(json.loads(proc.stderr.decode().splitlines()[-1]))
            i += 1
        tally.passes = len(tally.latencies)

    def process_scaler():
        return speed.Scaler(speed.interpreter_start, speed.REFERENCE_PROCESS_S, every=0.4)

    plain = Tally(process_scaler())
    spawn(plain, seconds / 2 if trace else seconds, plain_cmd, None)
    out = summarize("cold_cli", plain)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if trace:
        traced, summaries = Tally(process_scaler()), []
        spawn(traced, seconds / 2, traced_cmd, summaries)
        out["failed"] += traced.failed
        out["attempted"] += len(traced.latencies)
        out["first_diff"] = out["first_diff"] or traced.first_diff
        total = merge(summaries)
        out["layers"] = layer_metrics(total, traced.passes, traced.factor())
        out["layers"]["trace.overhead_ratio"] = traced.cases_per_s() / plain.cases_per_s()
    return out


# --- results -----------------------------------------------------------------

def summarize(workload, tally):
    """Timings at the reference speed, and raw ones (``raw_``) as measured."""
    q = TAIL_PERCENTILE[workload]
    lat, raw = tally.scaled(), tally.latencies
    ok = len(raw) - tally.failed
    return {
        "attempted": len(raw),
        "failed": tally.failed,
        "first_diff": tally.first_diff,
        "passes": tally.passes,
        "busy_s": tally.busy,
        "cases_per_s": tally.cases_per_s(),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_tail_ms": percentile(lat, q) * 1e3,
        "raw_cases_per_s": ok / tally.busy,
        "raw_latency_p50_ms": percentile(raw, 50) * 1e3,
        "raw_latency_tail_ms": percentile(raw, q) * 1e3,
        "speed_factor": tally.factor(),
        "tail_percentile": q,
        "samples_beyond_tail": sum(1 for x in lat if x > percentile(lat, q)),
    }


def merge(summaries):
    """Add up summaries of traced processes (see Tracer.summary)."""
    total = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, dict):
                slot = total.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = slot.get(k, 0) + v
            else:
                total[key] = total.get(key, 0) + value
    return total


def layer_metrics(summary, passes, factor):
    """Per-layer metrics from a tracer summary: times (scaled by the speed
    ``factor``) and counts per pass, CLI steps per case. ``import_s`` (traced
    CLI processes only) counts as traced time, attributed to set-up."""
    cases = summary["cases"]
    imports = sum(summary.get("import_s", {}).values())
    traced_s = summary["case_s"] + imports
    ms = 1e3 * factor
    out = {f"cli.{step}_ms": seconds / cases * ms for step, seconds in summary["steps"].items()}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = summary["self_s"][layer] / passes * ms
        out[f"{layer}.calls"] = summary["calls"][layer] / passes
    for metric, function in KERNEL_COUNTS.items():
        out[metric] = summary["counts"][function] / passes
    atpg_calls = summary["counts"]["testability.atpg_exhaustive"]
    out["testability.patterns_per_atpg"] = summary["atpg_patterns"] / atpg_calls if atpg_calls else 0.0
    out["trace.pass_ms"] = traced_s / passes * ms
    out["trace.coverage_ratio"] = (sum(summary["self_s"].values()) + imports) / traced_s
    return out


def main(argv):
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"vlsidesk imported from {cli.__file__}, not from {SRC}")
    if workload == "cold_cli":
        out = cold_cli(seed, seconds, trace)
    else:
        out = in_process(workload, seed, seconds, trace)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
