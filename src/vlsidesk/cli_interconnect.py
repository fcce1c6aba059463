"""CLI adapters of the interconnect analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import interconnect
from .cli import INT, NUM, STR, _pick, _schema, _take, analysis


@analysis("elmore",
          {"root": STR,
           "edges": {"type": "array",
                     "items": {"type": "array", "prefixItems": [STR, STR, NUM],
                               "items": False, "minItems": 3}},
           "caps": {"type": "object", "additionalProperties": NUM},
           "sink": STR, "scale": {"enum": ["tau", 0.69, "0.69"]}},
          ["root", "edges", "caps", "sink"])
def _run_elmore(params):
    tree = interconnect.RcTree.from_edges(params["root"], params["edges"], params["caps"])
    tau = interconnect.elmore(tree, params["sink"], **_pick(params, "scale"))
    return [("delay", tau, "s")], []


_WIRE_PROPS = {
    "length": NUM, "width": NUM, "r_sheet": NUM,
    "c_area": NUM, "c_fringe_per_edge": NUM, "fringe_edges": INT,
}


@analysis("wire_rc", _WIRE_PROPS, ["length", "width", "r_sheet"])
def _run_wire_rc(params):
    return _take(interconnect.wire_rc(interconnect.WireSpec(**params)),
                 r="ohm", c="F"), []


def _buffer_model(obj):
    if "fixed_delay" in obj:
        return interconnect.FixedDelay(obj["fixed_delay"])
    return interconnect.RcDriver(**obj)


_BUFFER = {"oneOf": [
    {"type": "object", "required": ["fixed_delay"], "properties": {"fixed_delay": NUM},
     "additionalProperties": False},
    {"type": "object", "required": ["r_drive"],
     "properties": {"r_drive": NUM, "c_diff_out": NUM, "c_gate_in": NUM},
     "additionalProperties": False},
]}


@analysis("buffered_wire_delay",
          {"wire": _schema(_WIRE_PROPS, ["length", "width", "r_sheet"]),
           "n_buffers": {"type": ["integer", "array"]},
           "buffer": _BUFFER,
           "driver": _BUFFER,
           "load_c": NUM, "wire_delay_coeff": NUM},
          ["wire", "n_buffers", "buffer"])
def _run_buffered(params):
    res = interconnect.buffered_wire_delay(
        interconnect.WireSpec(**params["wire"]), params["n_buffers"],
        _buffer_model(params["buffer"]),
        driver=_buffer_model(params["driver"]) if "driver" in params else None,
        **_pick(params, "load_c", "wire_delay_coeff"))
    delays = {str(n): d for n, d in sorted(res["delays"].items())}
    return [("delays", delays, "s")] + _take(res, optimal_n="", optimal_delay="s"), []


@analysis("inverter_chain_plan", {"f": NUM, "cd_over_cg": NUM}, ["f"])
def _run_chain(params):
    return _take(interconnect.inverter_chain_plan(**params),
                 alpha="", total_inverters=""), []
