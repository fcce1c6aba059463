"""vlsidesk benchmark: one command for every workload and metric.

Usage, from the repository root:
    python3 perfbench/run.py --workload corpus|cold_cli|scale|all \\
        --seed N --seconds S --trace 0|1

Prints the environment, the workload's details and a table of metrics,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
the per-layer ones. Exits 1 when an output check failed and 2 when the
program or its cases are missing. See perfbench/README.md.
"""

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("corpus", "cold_cli", "scale")
SETUP_PROBES = 9
PROBE = ("import time; t0 = time.perf_counter(); import jsonschema; "
         "t1 = time.perf_counter(); import vlsidesk.cli as c; t2 = time.perf_counter(); "
         "assert c.REGISTRY; print(t1 - t0, t2 - t1, c.__file__)")

sys.path.insert(0, HERE)
import speed  # noqa: E402
from tracer import LAYERS  # noqa: E402

UNITS = (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
         ("_lines", "lines"))


def unit_of(name):
    if name.endswith("cases_per_s"):
        return "1/s"
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def setup_times(trace):
    """Fresh interpreters importing vlsidesk.cli: median wall seconds of the
    probe processes, and median in-process import seconds of jsonschema and
    of vlsidesk, at the reference speed (see speed.py)."""
    env = child_env()

    def probe(argv):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        return time.perf_counter() - t0, proc.stdout.split()

    probe([sys.executable, "-c", PROBE])                  # compiles bytecode, untimed
    scaler = speed.Scaler(speed.interpreter_start, speed.REFERENCE_PROCESS_S, every=0.0)
    walls, js, vl = [], [], []
    for _ in range(SETUP_PROBES):
        wall, (a, b, where) = probe([sys.executable, "-c", PROBE])
        if not os.path.abspath(where).startswith(SRC + os.sep):
            raise SystemExit(f"vlsidesk imported from {where}, not from {SRC}")
        walls.append(wall)
        js.append(float(a))
        vl.append(float(b))
        scaler.add(wall)
    factors = scaler.factors()
    out = {"setup_s": statistics.median(scaler.scale(walls)),
           "raw_setup_s": statistics.median(walls)}
    if trace:
        # the bare interpreter is the calibration itself, so it stays unscaled
        out["layers"] = {"setup.interpreter_ms": statistics.median(scaler.samples) * 1e3,
                         "setup.jsonschema_import_ms": statistics.median(
                             v * f for v, f in zip(js, factors)) * 1e3,
                         "setup.vlsidesk_import_ms": statistics.median(
                             v * f for v, f in zip(vl, factors)) * 1e3}
    return out


def src_lines():
    files = sorted(glob.glob(os.path.join(SRC, "vlsidesk", "*.py")))
    counts = {}
    for path in files:
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)[:-3]] = sum(1 for _ in fh)
    out = {f"{layer}.src_lines": counts.get(layer, 0) for layer in LAYERS}
    out["src.total_lines"] = sum(counts.values())
    return out


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "jsonschema": importlib.metadata.version("jsonschema"),
        **src_lines(),
    }


def run_workload(workload, seed, seconds, trace):
    setup = setup_times(trace)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(seconds), "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload {workload} failed with exit {proc.returncode}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        metrics = {**setup["layers"], **src_lines(), **out["layers"]}
    else:
        metrics = {"setup_s": setup["setup_s"],
                   "cases_per_s": out["cases_per_s"],
                   "latency_p50_ms": out["latency_p50_ms"],
                   "latency_tail_ms": out["latency_tail_ms"],
                   "peak_rss_mb": out["peak_rss_kb"] / 1024}
    detail = {k: v for k, v in out.items() if k != "layers"}
    detail["raw_setup_s"] = setup["raw_setup_s"]
    detail["failed_ratio"] = out["failed"] / out["attempted"]
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile(os.path.join(SRC, "vlsidesk", "cli.py"))
            and glob.glob(os.path.join(ROOT, "cases", "*.json"))):
        sys.stderr.write(f"{ROOT} holds no src/vlsidesk or no cases/*.json\n")
        return 2

    env = environment()
    # Calibration (speed.py) only tracks work on the CPU it runs on, so the
    # benchmark and every process it starts share one CPU.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print(json.dumps({"env": env}))
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in chosen:
        found, detail = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": workload, "seed": args.seed, **detail}))
        if detail["first_diff"]:
            print(f"first mismatch: {detail['first_diff']}", file=sys.stderr)
        for name, value in found.items():
            print(f"{workload:9} {name:38} {value:14.6g} {unit_of(name)}")
            key = name if len(chosen) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit_of(name)}
        attempted += detail["attempted"]
        failed += detail["failed"]
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
