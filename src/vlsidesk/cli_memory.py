"""CLI adapters of the SRAM analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import memory
from .cli import INT, NUM, STR, CaseError, _pick, _take, analysis
from .units import format_number


@analysis("cell_node_voltage",
          {"mode": {"enum": ["read_disturb", "write"]},
           "access": {"$ref": "#/$defs/cell_device"},
           "pulldown": {"$ref": "#/$defs/cell_device"},
           "pullup": {"$ref": "#/$defs/cell_device"},
           "v_dd": NUM, "v_bitline": NUM},
          ["mode", "access", "pulldown", "v_dd"])
def _run_cell_v(params):
    devices = {k: memory.CellDevice(**params[k])
               for k in ("access", "pulldown", "pullup") if k in params}
    cell = memory.SramCell(**devices, **_pick(params, "v_dd", "v_bitline"))
    res = memory.cell_node_voltage(cell, params["mode"])
    return [("v_node", res["v_node"], "V")], \
        [f"discarded quadratic root {format_number(res['discarded_root'])} V",
         f"regions: {res['regions']}"]


@analysis("load_resistor_bound",
          {"access": {"$ref": "#/$defs/cell_device"},
           "pulldown": {"$ref": "#/$defs/cell_device"},
           "v_dd": NUM, "v_q_max": NUM},
          ["access", "pulldown", "v_dd", "v_q_max"])
def _run_rl(params):
    res = memory.load_resistor_bound(
        memory.CellDevice(**params["access"]), memory.CellDevice(**params["pulldown"]),
        params["v_dd"], params["v_q_max"])
    return [("r_min", res["r_min"], "ohm")], []


@analysis("bitline_model",
          {"rows": INT, "cell_height": NUM, "cell_width": NUM, "bl_width": NUM,
           "access_w": NUM, "c_g": NUM, "c_d": NUM, "c_pp": NUM, "c_fr": NUM,
           "r_sq": NUM, "fringe_edges": INT},
          ["rows", "cell_height", "bl_width", "access_w"])
def _run_bitline(params):
    geom = memory.BitlineGeometry(**{"cell_width": 0.0, **params})
    return _take(memory.bitline_model(geom), c_total="F", c_diffusion="F",
                 c_wire="F", r_total="ohm", elmore_distributed="s"), []


@analysis("blocked_read_delay",
          {"rows": INT, "cols": INT, "decode_levels": INT, "mux_levels": INT,
           "r_word": NUM, "c_word": NUM, "r_bit": NUM, "c_bit": NUM,
           "d_gate": NUM, "d_mux": NUM},
          ["rows", "cols", "decode_levels"])
def _run_blocked(params):
    return _take(memory.blocked_read_delay(memory.ArrayPlan(**params)),
                 d_gate_count="gates", r_word_c_word_coeff="", r_bit_c_bit_coeff="",
                 d_mux_count="stages", delay="s"), []


@analysis("decoder_cost",
          {"stages": {"type": "array", "minItems": 0, "items": {
              "type": "object", "required": ["kind", "count"],
              "additionalProperties": False,
              "properties": {"kind": {"enum": ["nand", "nor", "inverter"]},
                             "fan_in": INT, "count": INT}}}},
          ["stages"])
def _run_decoder(params):
    return [("transistors", memory.decoder_cost(params["stages"]), "")], []


@analysis("address_decode",
          {"chips": INT, "banks": INT, "rows": INT, "cols": INT,
           "address_bits": INT,
           "order": {"type": "array", "items": STR, "minItems": 4, "maxItems": 4},
           "address": {"type": ["integer", "string"]}},
          ["chips", "banks", "rows", "cols", "address"])
def _run_addr(params):
    amap = memory.AddressMap(**{k: v for k, v in params.items() if k != "address"})
    addr = params["address"]
    try:
        addr = int(addr, 0) if isinstance(addr, str) else int(addr)
    except ValueError as e:
        raise CaseError(f"address {addr!r} is not an integer literal") from e
    res = memory.address_decode(amap, addr)
    fields = {k: res["fields"][k] for k in
              ("unused", *amap.order) if k in res["fields"]}
    ranges = {k: list(v) if v else None for k, v in res["bit_ranges"].items()}
    return [("fields", fields, ""), ("bit_ranges", ranges, ""),
            ("out_of_range", res["out_of_range"], "")], []
