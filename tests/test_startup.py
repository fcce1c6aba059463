"""Start-up of the CLI, each check in a fresh interpreter: a valid case never
imports jsonschema, argparse, dataclasses or inspect, and only the analysis
modules a case uses are loaded, ``vlsidesk.device`` among them."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from vlsidesk import cli

from conftest import CASES_DIR, load_case

SRC = pathlib.Path(cli.__file__).resolve().parent.parent
ALWAYS = {"vlsidesk", "vlsidesk.cli", "vlsidesk.errors", "vlsidesk.units"}
NEVER = ("jsonschema", "argparse", "dataclasses", "inspect")


def fresh_python(code, *args, stdin=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60)


LOADED = """
import json, sys
from vlsidesk import cli
code = cli.main(["run", sys.argv[1]])
sys.stdout.flush()
sys.stderr.write(json.dumps({"exit": code,
                             "loaded": [m for m in sys.argv[2:] if m in sys.modules],
                             "vlsidesk": sorted(m for m in sys.modules
                                                if m.startswith("vlsidesk"))}))
"""


@pytest.mark.parametrize("case,modules", [
    ("device_general_scaling", {"vlsidesk.device"}),
    ("timing_ring_design", {"vlsidesk.timing"}),
    ("interconnect_wire_rc_m1", {"vlsidesk.interconnect", "vlsidesk.device"}),
    ("test_atpg_smallest_vector", {"vlsidesk.testability", "vlsidesk.boolexpr"}),
    ("effort_nand_path_f64", {"vlsidesk.effort", "vlsidesk.gates", "vlsidesk.boolexpr"}),
    ("device_pass_gate_caps", {"vlsidesk.device"}),
    ("interconnect_slew_acc", {"vlsidesk.interconnect", "vlsidesk.device"}),
    ("memory_access_sizing", {"vlsidesk.memory", "vlsidesk.device"}),
])
def test_valid_run_loads_only_its_analysis_and_no_jsonschema(case, modules):
    proc = fresh_python(LOADED, str(CASES_DIR / f"{case}.json"), *NEVER)
    seen = json.loads(proc.stderr)
    assert seen == {"exit": 0, "loaded": [], "vlsidesk": sorted(ALWAYS | modules)}
    assert proc.stdout == cli.render_json(cli.run_case(load_case(case)))


RUN_ALL = """
import json, sys
from vlsidesk import cli
codes = [cli.main(["run", path]) for path in sys.argv[1:]]
sys.stdout.flush()
sys.stderr.write(json.dumps({"exits": sorted(set(codes)),
                             "loaded": sorted(m for m in ("argparse", "dataclasses",
                                                          "inspect", "vlsidesk.device")
                                              if m in sys.modules)}))
"""


def test_cases_outside_device_interconnect_and_memory_never_load_device():
    # timing, power, gates, effort and testability import no device model,
    # and no case imports dataclasses or inspect
    paths = sorted(str(p) for p in CASES_DIR.glob("*.json")
                   if p.name.split("_")[0] in ("timing", "power", "gates", "effort", "test"))
    assert len(paths) == 53
    proc = fresh_python(RUN_ALL, *paths)
    assert json.loads(proc.stderr) == {"exits": [0], "loaded": []}


def test_import_vlsidesk_loads_no_analysis_module():
    proc = fresh_python("import sys, vlsidesk\n"
                        "print(sorted(m for m in sys.modules if m.startswith('vlsidesk')))\n"
                        "print(vlsidesk.timing.__name__)")
    assert proc.stdout.splitlines() == ["['vlsidesk', 'vlsidesk.errors']", "vlsidesk.timing"]


def test_rejected_case_still_names_the_violation(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"schema": 1, "analysis": "ring_design",
                                "params": {"n_stages": 5, "period": "2n"}}))
    proc = fresh_python("import sys\nfrom vlsidesk import cli\nsys.exit(cli.main(sys.argv[1:]))",
                        "run", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ('{"error": {"code": "invalid_case", "message": '
                           '"params invalid at (params): \'duty\' is a required property"}}\n')


THREADS = """
import json, sys, threading
from vlsidesk import cli
cases = json.loads(sys.stdin.read())
barrier = threading.Barrier(len(cases))
out = [None] * len(cases)

def first_use(i):
    barrier.wait()
    out[i] = cli.render_json(cli.run_case(cases[i]))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use, args=(i,)) for i in range(len(cases))]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print(json.dumps({"alive": any(t.is_alive() for t in threads), "out": out}))
"""


def test_concurrent_first_use_of_different_analyses():
    # pairs of analyses in one module; effort, testability and power all
    # import boolexpr on first use, and the device and interconnect cases
    # both build a schema read off vlsidesk.device on first use
    names = ["effort_template_nand_reference", "effort_nand_path_f64",
             "test_atpg_smallest_vector", "test_lfsr_primitive",
             "power_signal_prob_sop", "power_gray_code",
             "device_pass_gate_caps", "interconnect_slew_acc"]
    cases = [load_case(n) for n in names]
    want = [cli.render_json(cli.run_case(c)) for c in cases]
    for _ in range(3):
        proc = fresh_python(THREADS, stdin=json.dumps(cases))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"alive": False, "out": want}
