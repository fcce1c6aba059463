"""Start-up and exit of the CLI, each check in a fresh interpreter: a valid
case never imports jsonschema, argparse, dataclasses, inspect or numbers, a
case other than the latch analysis never imports fractions or decimal, and
only the analysis modules a case uses are loaded, ``vlsidesk.device`` among
them. A run compiles ``cli.py`` once and the adapter module of its own
family only. ``python -m vlsidesk.cli`` writes what ``cli.main([...])``
writes in-process, and only the former freezes the heap before it exits."""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from vlsidesk import cli, timing

from conftest import CASES_DIR, load_case

SRC = pathlib.Path(cli.__file__).resolve().parent.parent
ALWAYS = {"vlsidesk", "vlsidesk.cli", "vlsidesk.errors", "vlsidesk.units"}
NEVER = ("jsonschema", "argparse", "dataclasses", "inspect", "numbers", "fractions",
         "decimal")


def python(*argv, stdin=None):
    """``python ARGV`` in a fresh interpreter that imports vlsidesk from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60)


def fresh_python(code, *args, stdin=None):
    return python("-c", code, *args, stdin=stdin)


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
    ("device_general_scaling", {"vlsidesk.cli_device", "vlsidesk.device"}),
    ("timing_ring_design", {"vlsidesk.cli_timing", "vlsidesk.timing"}),
    ("interconnect_wire_rc_m1", {"vlsidesk.cli_interconnect", "vlsidesk.interconnect"}),
    ("test_atpg_smallest_vector", {"vlsidesk.cli_testability", "vlsidesk.testability",
                                   "vlsidesk.boolexpr"}),
    ("effort_nand_path_f64", {"vlsidesk.cli_effort", "vlsidesk.effort"}),
    ("device_pass_gate_caps", {"vlsidesk.cli_device", "vlsidesk.device"}),
    ("interconnect_slew_acc", {"vlsidesk.cli_device", "vlsidesk.interconnect",
                               "vlsidesk.device"}),
    ("memory_access_sizing", {"vlsidesk.cli_device", "vlsidesk.memory", "vlsidesk.device"}),
    ("memory_bitline", {"vlsidesk.cli_memory", "vlsidesk.memory"}),
    ("power_gray_code", {"vlsidesk.cli_power", "vlsidesk.power"}),
    ("effort_template_nand_reference", {"vlsidesk.cli_effort", "vlsidesk.effort",
                                        "vlsidesk.gates", "vlsidesk.boolexpr"}),
])
def test_valid_run_loads_only_its_analysis_and_no_jsonschema(case, modules):
    proc = fresh_python(LOADED, str(CASES_DIR / f"{case}.json"), *NEVER)
    seen = json.loads(proc.stderr)
    assert seen == {"exit": 0, "loaded": [], "vlsidesk": sorted(ALWAYS | modules)}
    assert proc.stdout == cli.render_json(cli.run_case(load_case(case)))


RUN_ALL = """
import json, sys
from vlsidesk import cli
watched, *paths = sys.argv[1:]
codes = [cli.main(["run", path]) for path in paths]
sys.stdout.flush()
sys.stderr.write(json.dumps({"exits": sorted(set(codes)),
                             "loaded": sorted(m for m in watched.split(",")
                                              if m in sys.modules)}))
"""


def test_cases_that_need_no_device_model_never_load_device():
    # only the device family (output_slew and access_sizing among it) and
    # load_resistor_bound read the device model, and no case imports
    # dataclasses or inspect
    analyses = {p: load_case(p.stem)["analysis"] for p in CASES_DIR.glob("*.json")}
    paths = sorted(str(p) for p, a in analyses.items()
                   if cli.FAMILY[a] != "device" and a != "load_resistor_bound")
    assert len(paths) == 69
    proc = fresh_python(RUN_ALL, "argparse,dataclasses,inspect,vlsidesk.device", *paths)
    assert json.loads(proc.stderr) == {"exits": [0], "loaded": []}


COMPILES = """
import json, os, runpy, sys
from importlib.machinery import SourceFileLoader

compiled = []
source_to_code = SourceFileLoader.source_to_code

def counting(self, data, path, *args, **kwargs):
    compiled.append(path)
    return source_to_code(self, data, path, *args, **kwargs)

SourceFileLoader.source_to_code = counting
sys.argv[1:] = ["run", sys.argv[1]]
try:
    runpy.run_module("vlsidesk.cli", run_name="__main__", alter_sys=True)
except SystemExit as e:
    code = e.code
sys.stdout.flush()
sys.stderr.write(json.dumps({"exit": code, "compiled": [
    os.path.basename(p) for p in compiled
    if os.path.basename(os.path.dirname(p)) == "vlsidesk"]}))
"""


@pytest.mark.parametrize("case", ["device_general_scaling", "gates_euler_ordering",
                                  "interconnect_slew_diff", "effort_template_ratioed",
                                  "timing_ring_design", "power_signal_prob_sop",
                                  "memory_access_sizing", "test_lfsr_primitive"])
def test_module_run_compiles_cli_once_and_one_adapter_module(case, tmp_path):
    # an empty bytecode cache makes every import compile its source, as in
    # a checkout that was never byte-compiled
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", COMPILES, str(CASES_DIR / f"{case}.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    seen = json.loads(proc.stderr)
    family = cli.FAMILY[load_case(case)["analysis"]]
    assert seen["exit"] == 0
    assert sorted(f for f in seen["compiled"] if f.startswith("cli")) == [
        "cli.py", f"cli_{family}.py"]
    assert len(seen["compiled"]) == len(set(seen["compiled"]))
    assert proc.stdout == cli.render_json(cli.run_case(load_case(case)))


REGISTERS = """
import importlib, json, sys
from vlsidesk import cli
assert "lfsr" in cli.REGISTRY and "nope" not in cli.REGISTRY and len(cli.REGISTRY) == 47
listed = list(cli.REGISTRY)
untouched = sorted(m for m in sys.modules if m.startswith("vlsidesk.cli_"))
added = {}
for family in dict.fromkeys(cli.FAMILY.values()):
    before = len(cli._ENTRIES)
    importlib.import_module(f"vlsidesk.cli_{family}")
    added[family] = list(cli._ENTRIES)[before:]
print(json.dumps({"listed": listed, "untouched": untouched, "added": added,
                  "all": list(cli._ENTRIES)}))
"""


def test_family_modules_register_exactly_the_family_table():
    seen = json.loads(fresh_python(REGISTERS).stdout)
    assert seen["listed"] == seen["all"] == list(cli.FAMILY)
    assert seen["untouched"] == []  # in, len and iteration import no adapter module
    assert seen["added"] == {family: [n for n, f in cli.FAMILY.items() if f == family]
                             for family in dict.fromkeys(cli.FAMILY.values())}
    assert list(cli.REGISTRY.items()) == [(n, cli.REGISTRY[n]) for n in cli.FAMILY]


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
    # sixteen threads, most of them in pairs that share an adapter module,
    # import the eight adapter modules at once; effort, testability and power
    # all import boolexpr on first use, and four cli_device cases (two of
    # them output_slew and access_sizing) read vlsidesk.device
    names = ["effort_template_nand_reference", "effort_nand_path_f64",
             "test_atpg_smallest_vector", "test_lfsr_primitive",
             "power_signal_prob_sop", "power_gray_code",
             "device_pass_gate_caps", "interconnect_slew_acc",
             "device_general_scaling", "interconnect_wire_rc_m1",
             "memory_access_sizing", "memory_bitline",
             "timing_ring_design", "timing_dff_margins",
             "gates_euler_ordering", "gates_charge_share_domino"]
    cases = [load_case(n) for n in names]
    want = [cli.render_json(cli.run_case(c)) for c in cases]
    for _ in range(3):
        proc = fresh_python(THREADS, stdin=json.dumps(cases))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"alive": False, "out": want}


def test_only_the_latch_analysis_loads_fractions():
    # no valid case loads numbers; fractions, which imports decimal and
    # numbers, is loaded by latch_constraints alone
    analyses = {p: load_case(p.stem)["analysis"] for p in CASES_DIR.glob("*.json")}
    latch = sorted(str(p) for p, a in analyses.items() if a == "latch_constraints")
    others = sorted(str(p) for p, a in analyses.items() if a != "latch_constraints")
    assert (len(latch), len(others)) == (2, 81)
    watched = "numbers,fractions,decimal"
    assert json.loads(fresh_python(RUN_ALL, watched, *others).stderr) == {
        "exits": [0], "loaded": []}
    assert json.loads(fresh_python(RUN_ALL, watched, *latch).stderr) == {
        "exits": [0], "loaded": ["decimal", "fractions", "numbers"]}


def module_run(*args, code=None):
    """``python -m vlsidesk.cli ARGS`` in a fresh interpreter, or ``python -c
    CODE ARGS`` where CODE sets up the process and then runs the module the
    same way."""
    proc = python(*(["-m", "vlsidesk.cli"] if code is None else ["-c", code]), *args)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, *args):
    code = cli.main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


AS_MODULE = """
import runpy, sys
{setup}
runpy.run_module("vlsidesk.cli", run_name="__main__", alter_sys=True)
"""

UNKNOWN = {"schema": 1, "analysis": "warp_drive", "params": {}}
NO_FAN_IN = {"schema": 1, "analysis": "decoder_cost",
             "params": {"stages": [{"kind": "nand", "count": 2}]}}


def case_path(tmp_path, case):
    """The path of a corpus case named ``case``, or of ``case`` written out."""
    if isinstance(case, str):
        return str(CASES_DIR / f"{case}.json")
    path = tmp_path / "case.json"
    path.write_text(json.dumps(case))
    return str(path)


@pytest.mark.parametrize("command,case,options,code", [
    ("run", "timing_ring_design", [], 0),
    ("run", "effort_decoder_path", ["--format", "table"], 0),
    ("run", "memory_decoder_basic", ["--format=table"], 0),
    ("validate", "power_gray_code", [], 0),
    ("list", None, [], 0),
    ("run", UNKNOWN, [], 1),
    ("frobnicate", None, [], 1),
    ("run", NO_FAN_IN, [], 2),
], ids=["run", "run-table", "run-table-eq", "validate", "list", "unknown-analysis",
        "usage-error", "analysis-error"])
def test_module_run_writes_what_main_returns_in_process(command, case, options, code,
                                                        tmp_path, capsys):
    args = [command, *([case_path(tmp_path, case)] if case else []), *options]
    want = in_process(capsys, *args)
    assert want[0] == code
    assert module_run(*args) == want


def test_module_run_of_a_defect_writes_what_main_returns_in_process(capsys, monkeypatch):
    # a library function that is not callable stands in for a defect: exit 3,
    # with the same traceback in both processes
    path = case_path(None, "timing_ring_design")
    monkeypatch.setattr(timing, "ring_design", None)
    want = in_process(capsys, "run", path)
    monkeypatch.undo()
    setup = "from vlsidesk import timing\ntiming.ring_design = None"
    assert want[0] == 3 and json.loads(want[2])["error"]["message"] == (
        "TypeError: 'NoneType' object is not callable")
    assert module_run("run", path, code=AS_MODULE.format(setup=setup)) == want


FREEZE_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}\\n"))
"""


@pytest.mark.parametrize("case", ["timing_ring_design", "memory_decoder_basic"])
def test_module_run_freezes_the_heap_and_still_runs_atexit(case, capsys):
    path = case_path(None, case)
    want = in_process(capsys, "run", path)
    got = module_run("run", path, code=AS_MODULE.format(setup=FREEZE_AT_EXIT))
    assert got == (0, want[1], "frozen at exit: True\n")


def test_main_with_an_argument_list_leaves_the_collector_alone(tmp_path, capsys):
    assert gc.get_freeze_count() == 0
    for args in (["run", case_path(tmp_path, "timing_ring_design")], ["list"],
                 ["run", case_path(tmp_path, UNKNOWN)], ["frobnicate"]):
        cli.main(args)
        assert gc.get_freeze_count() == 0
    capsys.readouterr()
