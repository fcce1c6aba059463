"""CLI adapters of the test-logic analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import testability
from .cli import INT, STR, _schema, _take, analysis


@analysis("lfsr",
          {"powers": {"type": "array", "items": INT, "minItems": 2},
           "coeffs": {"type": "array", "items": INT, "minItems": 2},
           "seed": INT, "steps": INT},
          [], oneOf=[{"required": ["powers"]}, {"required": ["coeffs"]}])
def _run_lfsr(params):
    poly = (testability.GfPolynomial.from_powers(params["powers"]) if "powers" in params
            else testability.GfPolynomial(tuple(params["coeffs"])))
    lfsr = testability.lfsr_build(poly)
    out = [("n", lfsr.n, "bits"), ("taps", list(lfsr.taps), ""),
           ("matrix", [list(r) for r in lfsr.matrix], "")]
    if "seed" in params:
        run = testability.lfsr_run(lfsr, params["seed"], params.get("steps", 0))
        out += [("states", run["states"], ""), ("period", run["period"], "steps")]
    return out, []


_NAMES = {"type": "array", "items": STR}
_NETLIST = _schema(
    {"inputs": _NAMES, "outputs": _NAMES,
     "gates": {"type": "array",
               "items": _schema({"kind": STR, "inputs": _NAMES, "output": STR},
                                ["kind", "inputs", "output"])}},
    ["inputs", "gates", "outputs"])
_FAULT = _schema({"net": STR, "value": INT}, ["net", "value"])
_VECTOR = {"type": ["array", "object"]}


@analysis("logic_simulate",
          {"netlist": _NETLIST, "vector": _VECTOR}, ["netlist", "vector"])
def _run_logic_sim(params):
    net = testability.GateNetlist.from_json(params["netlist"])
    return _take(testability.logic_simulate(net, params["vector"]), outputs=""), []


@analysis("fault_simulate",
          {"netlist": _NETLIST,
           "vectors": {"type": "array", "items": _VECTOR, "minItems": 1},
           "faults": {"type": "array", "items": _FAULT, "minItems": 1}},
          ["netlist", "vectors", "faults"])
def _run_fault_sim(params):
    net = testability.GateNetlist.from_json(params["netlist"])
    faults = [testability.StuckFault(**f) for f in params["faults"]]
    return [("per_vector", testability.fault_simulate(net, params["vectors"], faults),
             "")], []


@analysis("atpg",
          {"netlist": _NETLIST, "fault": _FAULT}, ["netlist", "fault"])
def _run_atpg(params):
    net = testability.GateNetlist.from_json(params["netlist"])
    res = testability.atpg_exhaustive(net, testability.StuckFault(**params["fault"]))
    return _take(res, testable="", vector=""), []
