"""``vlsidesk run CASE`` under the tracer, for traced ``cold_cli`` runs.

Usage (from the repository root, with src/ on PYTHONPATH):
    python3 perfbench/trace_cli.py CASE ANALYSIS

Prints the report on stdout exactly as ``python -m vlsidesk.cli run CASE``
does, and one JSON line on stderr: the tracer's summary plus the import
times of jsonschema and of vlsidesk.cli.
"""

import sys
import time

t0 = time.perf_counter()
import jsonschema  # noqa: E402,F401

t1 = time.perf_counter()
from vlsidesk import cli  # noqa: E402

t2 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402


def main(path, analysis):
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.case(analysis, cli.main, ["run", path])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = {"jsonschema": t1 - t0, "vlsidesk": t2 - t1}
    sys.stderr.write(json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
