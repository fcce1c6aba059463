"""Batch front-end: ``vlsidesk run case.json`` reads one JSON case naming
an analysis and its parameters, dispatches to the library, and prints a
deterministic JSON (or aligned-text) report.

Exit status: 0 analysis ran (verdicts such as violations live in the
report), 1 malformed input (bad JSON, schema violation, unknown
analysis, a command line that does not match the usage), 2 analysis
error (infeasible, solver failure), with a machine-readable error object
on stderr for both failure kinds.
"""

import functools
import importlib
import json
import numbers
import sys

from .errors import QuantityError, VlsiError
from .units import format_number, parse_quantity


class _Lazy:
    """A library module imported on first use. ``importlib.import_module``
    holds the import lock, so a thread never sees a half-initialised module."""

    def __init__(self, name):
        self._name = f"{__package__}.{name}"

    def __getattr__(self, attr):
        return getattr(importlib.import_module(self._name), attr)


device, effort, gates, interconnect, memory, power, testability, timing = map(_Lazy, (
    "device", "effort", "gates", "interconnect", "memory", "power", "testability", "timing"))

SCHEMA_VERSION = 1

NUM = {"type": ["number", "string"]}
INT = {"type": "integer"}
STR = {"type": "string"}
BOOL = {"type": "boolean"}

_DEFS = {
    "network": {
        "type": "object",
        "oneOf": [
            {"required": ["input"]},
            {"required": ["series"]},
            {"required": ["parallel"]},
        ],
        "properties": {
            "input": STR,
            "width": NUM,
            "series": {"type": "array", "items": {"$ref": "#/$defs/network"},
                       "minItems": 2},
            "parallel": {"type": "array", "items": {"$ref": "#/$defs/network"},
                         "minItems": 2},
        },
        "additionalProperties": False,
    },
    "netlist": {
        "type": "object",
        "required": ["inputs", "gates", "outputs"],
        "additionalProperties": False,
        "properties": {
            "inputs": {"type": "array", "items": STR},
            "outputs": {"type": "array", "items": STR},
            "gates": {"type": "array", "items": {
                "type": "object",
                "required": ["kind", "inputs", "output"],
                "additionalProperties": False,
                "properties": {"kind": STR,
                               "inputs": {"type": "array", "items": STR},
                               "output": STR},
            }},
        },
    },
    "cell_device": {
        "type": "object",
        "required": ["k_prime", "wl", "vt"],
        "additionalProperties": False,
        "properties": {"k_prime": NUM, "wl": NUM, "vt": NUM},
    },
    "bias_device": {
        "type": "object",
        "required": ["k_prime", "vt0", "bias"],
        "additionalProperties": False,
        "properties": {
            "polarity": {"enum": ["nmos", "pmos"]},
            "k_prime": NUM, "vt0": NUM, "gamma": NUM, "phi_f2": NUM,
            "lambda": NUM, "wl": NUM,
            "bias": {"type": "array", "items": NUM, "minItems": 3, "maxItems": 3},
        },
    },
    "vtc_points": {
        "type": "object",
        "required": ["v_ol", "v_oh", "v_il", "v_ih"],
        "additionalProperties": False,
        "properties": {"v_ol": NUM, "v_oh": NUM, "v_il": NUM, "v_ih": NUM},
    },
}


def _schema(props, required):
    return {
        "type": "object",
        "properties": props,
        "required": sorted(required),
        "additionalProperties": False,
        "$defs": _DEFS,
    }


def _pick(params, *keys):
    """The present ``keys`` of ``params``; the library's defaults fill the rest."""
    return {k: params[k] for k in keys if k in params}


def _take(res, **units):
    """Result rows (name, res[name], unit) for the names ``res`` holds."""
    return [(k, res[k], u) for k, u in units.items() if k in res]


@functools.cache
def _mos_fields():
    """Schema name -> MosDevice field; the schema drops the trailing "_" of ``lambda_``."""
    return {f.rstrip("_"): f for f in device.MosDevice._fields}


def _device_props(**more):
    """The MosDevice fields as schema properties, followed by ``more``."""
    return {**{k: {"enum": ["nmos", "pmos"]} if k == "polarity" else NUM
               for k in _mos_fields()}, **more}


def _mos_device(params):
    """Split ``params`` into a MosDevice and the params that are not device
    fields (schema ``lambda`` and ``wl`` are the fields ``lambda_`` and ``w``)."""
    fields = {**_mos_fields(), "wl": "w"}
    dev = device.MosDevice(**{fields[k]: v for k, v in params.items() if k in fields})
    return dev, {k: v for k, v in params.items() if k not in fields}


class _Entry(dict):
    """A REGISTRY entry, ``{"schema": ..., "run": ...}``, whose schema
    ``build`` makes on its first read."""

    def __init__(self, build, run):
        super().__init__(run=run)
        self.build = build

    def __missing__(self, key):
        if key != "schema":
            raise KeyError(key)
        return self.setdefault(key, self.build())  # of threads that race, one wins


REGISTRY = {}


def analysis(name, props, required):
    """Register the decorated adapter as ``name``. ``props`` are the schema's
    properties, or a function that returns them when they are read off
    ``device``. A schema is built when first read, so only the cases that
    use ``device`` load it."""
    def wrap(fn):
        REGISTRY[name] = _Entry(
            lambda: _schema(props() if callable(props) else props, required), fn)
        return fn
    return wrap


# --- device ----------------------------------------------------------------

@analysis("threshold_voltage",
          lambda: _device_props(v_sb=NUM), ["vt0", "v_sb"])
def _run_threshold(params):
    dev, rest = _mos_device(params)
    return [("v_t", device.threshold_voltage(dev, **rest), "V")], []


@analysis("bias_point",
          lambda: _device_props(v_gs=NUM, v_ds=NUM, v_sb=NUM),
          ["k_prime", "vt0", "w", "l", "v_gs", "v_ds"])
def _run_bias(params):
    dev, rest = _mos_device(params)
    return _take(vars(device.bias_point(dev, **rest)), region="", i_d="A", v_t="V"), []


@analysis("mos_capacitances",
          lambda: _device_props(region={"enum": ["cutoff", "linear", "saturation"]},
                                v_reverse=NUM),
          ["w", "l", "region"])
def _run_caps(params):
    dev, rest = _mos_device(params)
    return _take(vars(device.mos_capacitances(dev, **rest)), c_gb="F", c_gs="F",
                 c_gd="F", c_ox_total="F", c_overlap="F", c_bottom="F",
                 c_sidewall="F", c_junction_total="F"), []


@analysis("scale_factors",
          {"mode": {"enum": ["general", "constant_field", "constant_voltage"]},
           "s": NUM, "m": NUM}, ["mode", "s"])
def _run_scale(params):
    sf = device.scale_factors(**params)
    return [(f"factor_{k}", v, "x") for k, v in sf.factors.items()], []


@analysis("inverter_vtc",
          lambda: {"config": {"enum": list(device.INVERTER_ELEMENTS)},
                   "v_dd": NUM, "k_n": NUM, "vt_n": NUM, "k_p": NUM, "vt_p": NUM,
                   "k_driver": NUM, "vt_driver": NUM, "k_load": NUM, "vt_load": NUM,
                   "r_load": NUM},
          ["config", "v_dd"])
def _run_vtc(params):
    res = device.inverter_vtc(**params)
    diag = [f"regions at {k.removeprefix('at_')}: {v}" for k, v in res.regions.items()]
    return _take(vars(res), v_ol="V", v_oh="V", v_il="V", v_ih="V", v_m="V",
                 nm_l="V", nm_h="V"), diag


@analysis("noise_margins",
          {"driver": {"$ref": "#/$defs/vtc_points"},
           "receiver": {"$ref": "#/$defs/vtc_points"}},
          ["driver", "receiver"])
def _run_nm(params):
    return _take(device.noise_margins(**params), nm_l="V", nm_h="V"), []


# --- gates -----------------------------------------------------------------

_GATE_PROPS = {"expr": STR, "w_n": NUM, "w_p": NUM, "mu": NUM}


def _gate_from(params):
    reference = (params.get("w_n", 1.0), params.get("w_p", 4.0))
    return gates.compound_gate(params["expr"], reference, **_pick(params, "mu"))


@analysis("compound_gate", _GATE_PROPS, ["expr"])
def _run_compound(params):
    g = _gate_from(params)
    widths = {k: {"nmos": v[0], "pmos": v[1]} for k, v in sorted(g.widths().items())}
    return [("widths", widths, "W"), ("area", g.area(), "W*L"),
            ("area_ratio_vs_reference", g.area_ratio_vs_reference(), "")], []


@analysis("delay_bounds", {**_GATE_PROPS, "c_l": NUM}, ["expr"])
def _run_delay_bounds(params):
    b = gates.delay_bounds(_gate_from(params), **_pick(params, "c_l"))
    edges = ("fall", "rise")
    return [(f"{e}_{k}", b[e][k], "R_ref*C_L") for e in edges
            for k in ("worst", "best")] \
        + [(f"{e}_worst_over_best", b["ratios"][e], "") for e in edges], []


@analysis("common_euler_ordering", _GATE_PROPS, ["expr"])
def _run_euler(params):
    ordering = gates.common_euler_ordering(_gate_from(params))
    return [("found", ordering is not None, ""),
            ("ordering", ordering, "")], []


@analysis("charge_share_voltage",
          {"c_out": NUM, "c_exposed": {"type": "array", "items": NUM},
           "v_dd": NUM, "v_internal_init": NUM},
          ["c_out", "c_exposed"])
def _run_charge_share(params):
    case = gates.ChargeShareCase(**params)
    v = gates.charge_share_voltage(case)
    return [("v_out", v, "V"), ("v_out_over_v_dd", v / case.v_dd, "")], []


@analysis("evaluate_network",
          {"network": {"$ref": "#/$defs/network"},
           "assignment": {"type": "object", "additionalProperties": INT}},
          ["network", "assignment"])
def _run_eval_net(params):
    conducts = gates.evaluate_network(gates.network_from_json(params["network"]),
                                      params["assignment"])
    return [("conducts", int(conducts), "")], []


# --- interconnect ----------------------------------------------------------

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


@analysis("output_slew",
          lambda: _device_props(c_load=NUM, v_dd=NUM, v_from_pct=NUM, v_to_pct=NUM,
                                method={"enum": ["acc", "diff", "avg_current"]},
                                i_avg=NUM),
          ["c_load", "v_dd", "method"])
def _run_slew(params):
    dev, rest = _mos_device(params)
    dev = dev if "k_prime" in params else device.MosDevice()
    return [("t", interconnect.output_slew(dev, **rest), "s")], []


# --- effort ----------------------------------------------------------------

def _sized_gate(obj, mu):
    pun = obj["pun"]
    if "pullup_load" in pun:
        pun = effort.PullupLoad(pun["pullup_load"])
    else:
        pun = gates.network_from_json(pun)
    return gates.CompoundGate(pdn=gates.network_from_json(obj["pdn"]), pun=pun,
                              w_n=1.0, w_p=mu, mu=mu)


_NETWORK = {"$ref": "#/$defs/network"}
_PULL_UP = {"oneOf": [_NETWORK, {"type": "object", "required": ["pullup_load"],
                                   "properties": {"pullup_load": NUM},
                                   "additionalProperties": False}]}


@analysis("derive_template",
          {"pdn": _NETWORK, "pun": _PULL_UP, "mu": NUM, "cd_over_cg": NUM,
           "reference": {"type": "object", "required": ["pdn", "pun"],
                         "properties": {"pdn": _NETWORK, "pun": _PULL_UP, "mu": NUM},
                         "additionalProperties": False}},
          ["pdn", "pun"])
def _run_derive_template(params):
    mu = params.get("mu", 2.0)
    ref = params.get("reference",
                     {"pdn": {"input": "a"}, "pun": {"input": "a", "width": mu}})
    tpl = effort.derive_template(
        _sized_gate(params, mu), _sized_gate(ref, ref.get("mu", mu)),
        **_pick(params, "cd_over_cg"))
    res = {k: dict(sorted(v.items())) if isinstance(v, dict) else v
           for k, v in vars(tpl).items()}
    return _take(res, g_rise="", g_fall="", p_rise="", p_fall="", c_in="C_g"), []


@analysis("nand_nor_effort", {"n": INT, "mu": NUM}, ["n", "mu"])
def _run_nand_nor(params):
    res = effort.nand_nor_effort(**params)
    return [(f"{g}_{k}", res[g][k], "") for g in ("nand", "nor")
            for k in ("per_input", "total")], []


_STAGE_ITEM = {"type": "object", "required": ["g", "p"],
               "additionalProperties": False,
               "properties": {"g": NUM, "p": NUM, "b": NUM, "name": STR}}


def _path(params):
    return effort.PathSpec(stages=[effort.Stage(**s) for s in params["stages"]],
                           c_in=params["c_in"], c_load=params["c_load"])


_PATH_PROPS = {"stages": {"type": "array", "items": _STAGE_ITEM, "minItems": 1},
               "c_in": NUM, "c_load": NUM}


@analysis("path_delay", _PATH_PROPS, ["stages", "c_in", "c_load"])
def _run_path_delay(params):
    path = _path(params)
    res = effort.path_delay(path)
    caps = effort.size_stages(path, res["f_hat"])
    return _take(res, F="", G="", B="", H="", f_hat="", p_total="", d_hat="FO1") \
        + [("stage_caps", caps, "C_g")], []


@analysis("optimize_path",
          {**_PATH_PROPS, "allow_added_inverters": BOOL,
           "polarity": {"enum": ["any", "inverting", "non_inverting"]},
           "rho": NUM, "p_inv": NUM},
          ["stages", "c_in", "c_load"])
def _run_optimize(params):
    res = effort.optimize_path(
        _path(params),
        **_pick(params, "allow_added_inverters", "polarity", "rho", "p_inv"))
    diag = [f"candidate N={k}: D={format_number(v)}"
            for k, v in res["candidates"].items()]
    return _take(res, n="stages", added_inverters="", d="FO1", f_hat="",
                 stage_caps="C_g"), diag


@analysis("design_fork",
          {"c_in_total": NUM, "branch_load": NUM, "m": INT, "rho": NUM,
           "p_inv": NUM},
          ["c_in_total", "branch_load"])
def _run_fork(params):
    spec = effort.ForkSpec(**_pick(params, "c_in_total", "branch_load", "m", "p_inv"))
    return _take(effort.design_fork(spec, **_pick(params, "rho")),
                 m="stages", x="C_g", x_short="C_g", d_fork="FO1", f_long="",
                 f_short="", long_caps="C_g", short_caps="C_g"), []


# --- timing ----------------------------------------------------------------

_EDGE_ITEM = {"type": "object", "required": ["launch", "capture"],
              "additionalProperties": False,
              "properties": {"launch": STR, "capture": STR, "t_cq_min": NUM,
                             "t_cq_max": NUM, "t_setup": NUM, "t_hold": NUM,
                             "d_min": NUM, "d_max": NUM, "skew": NUM,
                             "skew_uncertainty": NUM}}


@analysis("check_timing",
          {"period": NUM,
           "edges": {"type": "array", "items": _EDGE_ITEM, "minItems": 1}},
          ["period", "edges"])
def _run_check_timing(params):
    res = timing.check_timing([timing.RegEdge(**e) for e in params["edges"]],
                              params["period"])
    rows = [{"edge": f"{e['launch']}->{e['capture']}",
             **{k: v for k, v in e.items() if k not in ("launch", "capture")}}
            for e in res["edges"]]
    return [("edges", rows, "s")] + _take(res, t_min="s", hold_bound="s"), []


@analysis("pipeline_metrics",
          {"stage_delays": {"type": "array", "items": NUM, "minItems": 1},
           "n_items": INT, "reg_overhead": NUM, "target_period": NUM,
           "total_comb_delay": NUM},
          ["stage_delays"])
def _run_pipeline(params):
    return _take(timing.pipeline_metrics(**params), period="s", f_max="Hz",
                 total_latency="s", n_stages_needed="stages"), []


@analysis("ripple_chain",
          {"xy_to_s": NUM, "xy_to_bout": NUM, "bin_to_s": NUM,
           "bin_to_bout": NUM, "n_blocks": INT},
          ["xy_to_s", "xy_to_bout", "bin_to_s", "bin_to_bout", "n_blocks"])
def _run_ripple(params):
    return _take(timing.ripple_chain(timing.RippleArcs(**params)),
                 s_stable="s", bout_stable="s", critical_delay="s"), []


_RING_PROPS = {
    "stages": {"type": "array", "minItems": 1,
               "items": {"type": "array", "items": NUM,
                         "minItems": 2, "maxItems": 2}},
    "probe_node": INT,
    "first_transition": {"type": "object", "additionalProperties": False,
                         "properties": {"node": INT, "falling": BOOL,
                                        "input_rising": BOOL}},
}


@analysis("ring_analyze", _RING_PROPS, ["stages"])
def _run_ring(params):
    spec = timing.RingSpec(**_pick(params, "stages", "probe_node"))
    out = _take(timing.ring_analyze(spec), period="s", t_high="s", t_low="s", duty="")
    if "first_transition" in params:
        ft = dict(params["first_transition"])
        node = ft.pop("node", len(spec.stages) - 1)
        t = timing.ring_first_transition(spec, node, **ft)
        out.append(("first_transition_at", t, "s"))
    return out, []


@analysis("ring_design",
          {"n_stages": INT, "period": NUM, "duty": NUM},
          ["n_stages", "period", "duty"])
def _run_ring_design(params):
    return _take(timing.ring_design(**params), t_plh="s", t_phl="s"), []


@analysis("latch_constraints",
          {"n_stages": INT, "duty": NUM,
           "deltas": {"type": "array", "items": NUM},
           "d_cq": NUM, "d_dq": NUM, "d_dc": NUM, "d_cd": NUM,
           "skew": NUM, "period": NUM, "unbounded_uniform_delta": NUM},
          ["n_stages", "duty"])
def _run_latch(params):
    res = timing.latch_constraints(timing.LatchPipeline(
        **{k: v for k, v in params.items() if k != "unbounded_uniform_delta"}))
    out = [("inequalities", [c["text"] for c in res["constraints"]], "")]
    if res["t_min"] is not None:
        out += _take(res, t_min="s", feasible="")
    if "unbounded_uniform_delta" in params:
        out.append(("t_min_unbounded", timing.latch_min_period_unbounded(
            params["unbounded_uniform_delta"], **_pick(params, "d_dq")), "s"))
    return out, []


@analysis("dff_margins",
          {"t": {"type": "array", "items": NUM, "minItems": 6, "maxItems": 6}},
          ["t"])
def _run_dff(params):
    return _take(timing.dff_margins(**params), t_setup="s", t_hold="s"), []


# --- power -----------------------------------------------------------------

@analysis("signal_probability",
          {"expr": STR,
           "probabilities": {"type": "object", "additionalProperties": NUM}},
          ["expr", "probabilities"])
def _run_sig_prob(params):
    return _take(power.signal_probability(**params), p="", beta="transitions/cycle"), []


_LOADS = {"type": "array", "minItems": 1,
          "items": {"type": "object", "required": ["c", "beta"],
                    "additionalProperties": False,
                    "properties": {"c": NUM, "beta": NUM}}}


@analysis("switching_power",
          {"loads": _LOADS, "v_dd": NUM, "f_clk": NUM, "v_swing": NUM,
           "activity": {"enum": ["transitions", "zero_to_one"]},
           "compare_loads": _LOADS},
          ["loads", "v_dd", "f_clk"])
def _run_switching(params):
    env = power.PowerEnv(**_pick(params, "v_dd", "f_clk", "v_swing"))

    def switching(items):
        return power.switching_power([power.LoadPoint(**l) for l in items], env,
                                     **_pick(params, "activity"))
    p = switching(params["loads"])
    out = [("power", p, "W")]
    if "compare_loads" in params:
        p2 = switching(params["compare_loads"])
        out += [("compare_power", p2, "W"), ("ratio", p / p2, "")]
    return out, []


@analysis("short_circuit_power",
          {"k": NUM, "v_t": NUM, "v_dd": NUM, "f_clk": NUM, "tau_in": NUM,
           "tau_out": NUM, "beta": NUM},
          ["k", "v_t", "v_dd", "f_clk", "tau_in", "beta"])
def _run_sc(params):
    env = power.PowerEnv(params["v_dd"], params["f_clk"])
    p = power.short_circuit_power(params["k"], params["v_t"], env, params["tau_in"],
                                  **_pick(params, "tau_out", "beta"))
    return [("power", p, "W")], \
        ["triangular crowbar model: E = k*tau_in*(v_dd - 2*v_t)^3 / 24 per transition"]


@analysis("voltage_scaling_factors",
          {"v_from": NUM, "v_to": NUM, "v_t": NUM}, ["v_from", "v_to", "v_t"])
def _run_vscale(params):
    res = power.voltage_scaling_factors(**params)
    if res["short_circuit_reduction"] == float("inf"):
        res["short_circuit_reduction"] = "infinite"
    return _take(res, switching_reduction="x", short_circuit_reduction="x"), []


@analysis("leakage_stack",
          {"i0": NUM, "lambda_d": NUM, "s_swing": NUM, "v_dd": NUM},
          ["i0", "lambda_d", "s_swing", "v_dd"])
def _run_leak(params):
    return _take(power.leakage_stack(**params), v_x="V", stack_over_single_ratio=""), []


@analysis("adiabatic_energy",
          {"r_on": NUM, "c": NUM, "v_cmax": NUM, "t_ramp": NUM,
           "n_outputs_switching": INT},
          ["r_on", "c", "v_cmax", "t_ramp"])
def _run_adiabatic(params):
    return [("energy", power.adiabatic_energy(**params), "J")], []


@analysis("bus_split",
          {"n_modules": INT, "m_buses": INT, "locality": NUM},
          ["n_modules", "m_buses"])
def _run_bus(params):
    return _take(power.bus_split(**params), saving_percent="%", optimal_m="",
                 optimal_m_integer="", optimal_saving_percent="%"), []


@analysis("gray_code",
          {"n_bits": INT, "sequence": {"type": "array", "items": INT}},
          ["n_bits"])
def _run_gray(params):
    return _take(power.gray_code(**params), codes="", binary_transitions="",
                 gray_transitions="", saved=""), []


# --- memory ----------------------------------------------------------------

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


_BIAS_DEV = {"$ref": "#/$defs/bias_device"}


@analysis("access_sizing",
          {"fixed": _BIAS_DEV, "unknown": _BIAS_DEV}, ["fixed", "unknown"])
def _run_access_sizing(params):
    fixed, fixed_rest = _mos_device(params["fixed"])
    unknown, unknown_rest = _mos_device(params["unknown"])
    res = memory.access_sizing(fixed, fixed_rest["bias"], unknown, unknown_rest["bias"])
    return _take(res, wl="", i_balance="A"), [f"regions: {res['regions']}"]


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


# --- testability -------------------------------------------------------------

@analysis("lfsr",
          {"powers": {"type": "array", "items": INT, "minItems": 2},
           "coeffs": {"type": "array", "items": INT, "minItems": 2},
           "seed": INT, "steps": INT},
          [])
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


REGISTRY["lfsr"]["schema"]["anyOf"] = [{"required": ["powers"]},
                                       {"required": ["coeffs"]}]


_NETLIST = {"$ref": "#/$defs/netlist"}
_FAULT = {"type": "object", "required": ["net", "value"],
          "additionalProperties": False,
          "properties": {"net": STR, "value": INT}}
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


# --- case handling ----------------------------------------------------------

CASE_SCHEMA = {
    "type": "object",
    "required": ["analysis", "params"],
    "additionalProperties": False,
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "analysis": STR,
        "params": {"type": "object"},
        "meta": {"type": "object"},
    },
}


class CaseError(Exception):
    """Malformed case file (exit status 1)."""


def load_case(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise CaseError(f"cannot read case file: {e}") from e
    except ValueError as e:  # bad JSON, bad UTF-8, an integer over Python's digit limit
        raise CaseError(f"case file is not valid JSON: {e}") from e


# --- compiled schema walks --------------------------------------------------

_TYPES = {  # Draft 2020-12 types as jsonschema tells them apart
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
             "prefixItems", "minItems", "maxItems", "enum", "const", "oneOf", "anyOf",
             "$ref", "$defs"}


class _Reject(Exception):
    """A compiled walk met a schema violation; jsonschema words it."""


def _accept(x, bad):
    return x


def _refuse(x, bad):
    raise _Reject


def _guard(test):
    """A step that passes ``x`` on unchanged when ``test(x)`` holds."""
    def step(x, bad):
        if test(x):
            return x
        raise _Reject
    return step


def _among(values):
    """Membership by jsonschema's equality, under which True and False differ
    from 1 and 0; only scalar values compile."""
    if any(isinstance(v, (list, dict)) for v in values):
        raise ValueError(f"no compiled check for the non-scalar values in {values}")
    allowed = [(isinstance(v, bool), v) for v in values]
    return lambda x: (isinstance(x, bool), x) in allowed


def _either(first, second):
    return lambda x: first(x) or second(x)


def _typed(kinds):
    """The ``type`` step: a quantity (NUM) parses, an integral float in an
    integer field becomes an ``int``, and any other value passes unchanged."""
    test = functools.reduce(_either, [_TYPES[t] for t in kinds])
    if kinds == NUM["type"]:
        def quantity(x, bad):
            if type(x) not in (str, float, int) and not test(x):
                raise _Reject
            try:
                return parse_quantity(x)
            except QuantityError as e:
                bad.append(e)
                return x
        return quantity
    if "integer" in kinds:
        def integer(x, bad):
            if not test(x):
                raise _Reject
            if type(x) in (int, float):
                if abs(x) > sys.float_info.max:
                    bad.append(QuantityError("integer is beyond the floating-point range"))
                    return x
                return int(x)
            return x
        return integer
    return _guard(test)


def _object(props, required, extra, typed):
    """The object keywords; ``typed`` makes them reject what is not an object."""
    required = frozenset(required)

    def step(x, bad):
        if not isinstance(x, dict):
            if typed:
                raise _Reject
            return x
        if not x.keys() >= required:
            raise _Reject
        if not props and extra is _accept:  # nothing inside to parse
            return x
        return {k: props.get(k, extra)(v, bad) for k, v in x.items()}
    return step


def _array(prefix, rest, lo, hi, typed):
    """The array keywords; ``typed`` makes them reject what is not an array."""
    def step(x, bad):
        if not isinstance(x, list):
            if typed:
                raise _Reject
            return x
        if not lo <= len(x) <= hi:
            raise _Reject
        return [p(v, bad) for p, v in zip(prefix, x)] + [rest(v, bad) for v in x[len(prefix):]]
    return step


def _one_of(branches):
    """The value of the one accepting branch, with its unparsed quantities."""
    def step(x, bad):
        found = None
        for branch in branches:
            mine = []
            try:
                value = branch(x, mine)
            except _Reject:
                continue
            if found is not None:
                raise _Reject
            found = value, mine
        if found is None:
            raise _Reject
        bad.extend(found[1])
        return found[0]
    return step


def _any_of(branches):
    """``x`` unchanged when a branch accepts it."""
    def step(x, bad):
        for branch in branches:
            try:
                branch(x, [])
            except _Reject:
                continue
            return x
        raise _Reject
    return step


def _compile(schema, root, refs):
    """The walk of ``schema``, a part of the document ``root`` whose
    ``$defs`` its ``$ref``s name; ``refs`` maps each ``$ref`` met so far to
    its walk. A keyword outside _KEYWORDS raises ValueError.

    The walk ``f(x, bad)`` accepts exactly what jsonschema's Draft 2020-12
    validator accepts, and raises _Reject otherwise. It returns ``x`` parsed,
    on a copy: quantities by ``parse_quantity``, integral floats in integer
    fields as ``int``, and a ``oneOf`` as its accepting branch parses it. A
    quantity that does not parse goes on ``bad`` and the walk goes on, so a
    schema violation later in ``x`` still rejects it. The steps below run in
    order, each on the value the one before returned, so a later keyword
    must not test a field an earlier one parses; no schema here does."""
    if isinstance(schema, bool):
        return _accept if schema else _refuse
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"no compiled check for schema keywords {sorted(unknown)}")
    sub = functools.partial(_compile, root=root, refs=refs)
    steps = []
    if "enum" in schema:
        steps.append(_guard(_among(schema["enum"])))
    if "const" in schema:
        steps.append(_guard(_among([schema["const"]])))
    kinds = schema.get("type", [])
    kinds = [kinds] if isinstance(kinds, str) else kinds
    has_object = schema.keys() & {"properties", "required", "additionalProperties"}
    has_array = schema.keys() & {"prefixItems", "items", "minItems", "maxItems"}
    if kinds == NUM["type"] and schema.keys() != {"type"}:
        raise ValueError("a quantity takes no keyword besides its type")
    if "type" in schema and not (kinds == ["object"] and has_object
                                 or kinds == ["array"] and has_array):
        steps.append(_typed(kinds))  # else the object or array step tests the type
    if "$ref" in schema:
        ref = schema["$ref"]
        if ref not in refs:
            refs[ref] = None  # a recursive reference looks its target up when it runs
            refs[ref] = sub(root["$defs"][ref.removeprefix("#/$defs/")])
        steps.append(lambda x, bad: refs[ref](x, bad))
    if has_object:
        steps.append(_object({k: sub(v) for k, v in schema.get("properties", {}).items()},
                             schema.get("required", []),
                             sub(schema.get("additionalProperties", True)),
                             kinds == ["object"]))
    if has_array:
        steps.append(_array([sub(s) for s in schema.get("prefixItems", [])],
                            sub(schema.get("items", True)),
                            schema.get("minItems", 0), schema.get("maxItems", float("inf")),
                            kinds == ["array"]))
    if "oneOf" in schema:
        steps.append(_one_of([sub(s) for s in schema["oneOf"]]))
    if "anyOf" in schema:
        steps.append(_any_of([sub(s) for s in schema["anyOf"]]))
    if len(steps) <= 1:
        return steps[0] if steps else _accept

    def walk(x, bad):
        for step in steps:
            x = step(x, bad)
        return x
    return walk


@functools.cache
def _walk(name):
    """The compiled walk of one schema: the case envelope (``None``) or an analysis."""
    schema = CASE_SCHEMA if name is None else REGISTRY[name]["schema"]
    return _compile(schema, schema, {})


def _walk_case(case):
    """The analysis id, the parsed params and the quantities that did not
    parse, in document order, of a case the schemas accept. Only a rejected
    case imports jsonschema, whose first error the CaseError names."""
    bad = []
    try:
        _walk(None)(case, bad)
        if case["analysis"] in REGISTRY:
            return case["analysis"], _walk(case["analysis"])(case["params"], bad), bad
    except _Reject:
        pass
    import jsonschema
    e = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(CASE_SCHEMA).iter_errors(case))
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(top level)"
        raise CaseError(f"case structure invalid at {path}: {e.message}")
    name = case["analysis"]
    if name not in REGISTRY:
        raise CaseError(f"unknown analysis {name!r}")
    validator = jsonschema.Draft202012Validator(REGISTRY[name]["schema"])
    e = min(validator.iter_errors(case["params"]),
            key=lambda e: (e.json_path, e.message), default=None)
    if e is not None:
        path = "/".join(str(p) for p in e.absolute_path) or "(params)"
        raise CaseError(f"params invalid at {path}: {e.message}")
    raise AssertionError(f"the compiled schema check rejects a {name!r} case that "
                         "jsonschema accepts")


def validate_case(case) -> str:
    """Return the analysis id after full schema validation; raise CaseError
    naming the first violation otherwise. Quantities are not parsed here."""
    return _walk_case(case)[0]


def run_case(case) -> dict:
    """Validate and execute one case, returning the report dict. Adapters get
    every NUM field as a float; the report echoes the params as given. Once
    the schemas accept the case, the first quantity in document order that
    does not parse raises QuantityError."""
    name, params, bad = _walk_case(case)
    if bad:
        raise bad[0]
    try:
        results, diagnostics = REGISTRY[name]["run"](params)
    except KeyError as e:
        raise CaseError(f"params missing field {e}") from e
    return {
        "schema": SCHEMA_VERSION,
        "analysis": name,
        "label": case.get("meta", {}).get("label", ""),
        "inputs": case["params"],
        "results": {k: {"value": v, "unit": u} for k, v, u in results},
        "diagnostics": diagnostics,
    }


def _format_tree(x):
    if isinstance(x, float):
        return format_number(x)
    if isinstance(x, dict):
        return {k: _format_tree(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_format_tree(v) for v in x]
    return x


_STRING = json.encoder.encode_basestring_ascii


def _number(x):
    x = format_number(x)
    return _STRING(x) if isinstance(x, str) else repr(x)


_SCALARS = {str: _STRING, float: _number, int: int.__repr__,
            bool: lambda x: "true" if x else "false", type(None): lambda x: "null"}


def _json(x, pad):
    """``json.dumps(_format_tree(x), indent=2)`` for ``x`` on a line that
    starts with ``pad``, a newline and indent. A scalar inside a container
    is converted without a recursive call."""
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        return scalar(x)
    inner = pad + "  "
    if isinstance(x, dict):
        brackets = "{}"
        items = [f"{_STRING(k if isinstance(k, str) else json.dumps(k))}: "
                 f"{s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner)}"
                 for k, v in x.items()]
    elif isinstance(x, (list, tuple)):
        brackets = "[]"
        items = [s(v) if (s := _SCALARS.get(type(v))) else _json(v, inner) for v in x]
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def render_json(report) -> str:
    return _json(report, "\n") + "\n"


def render_table(report) -> str:
    lines = [f"analysis: {report['analysis']}"]
    if report["label"]:
        lines.append(f"label:    {report['label']}")
    rows = []
    for name, rv in report["results"].items():
        value = _format_tree(rv["value"])
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        rows.append((name, str(value), rv["unit"]))
    w_name = max((len(r[0]) for r in rows), default=0)
    w_val = max((len(r[1]) for r in rows), default=0)
    lines.append("")
    for name, value, unit in rows:
        lines.append(f"  {name:<{w_name}}  {value:>{w_val}}  {unit}".rstrip())
    if report["diagnostics"]:
        lines.append("")
        for d in report["diagnostics"]:
            lines.append(f"  note: {d}")
    return "\n".join(lines) + "\n"


def _fail(code, kind, message, **extra):
    sys.stderr.write(json.dumps(
        {"error": {"code": kind, "message": str(message), **extra}}) + "\n")
    return code


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # downstream closed the pipe (e.g. | head)
        return 0
    except Exception as e:  # a defect in vlsidesk, not in the case: keep it machine-readable
        import traceback  # only this path needs it; importing it up front slows every start
        return _fail(3, "internal_error", f"{type(e).__name__}: {e}",
                     traceback=traceback.format_exc())


_HELP = """usage: vlsidesk run CASE [--format json|table]
       vlsidesk validate CASE
       vlsidesk list

batch VLSI analysis runner

commands:
  run       run one case file
  validate  schema-check a case file without running
  list      list analysis ids and their parameter schemas
"""


class _UsageError(Exception):
    """A command line that does not match the usage (exit status 1)."""


def _command_line(argv):
    """The command, case path and report format that ``argv`` names."""
    command, *rest = argv or [""]
    if command not in ("run", "validate", "list"):
        raise _UsageError(f"unknown command {command!r}" if command else "no command given")
    fmt, operands = "json", []
    args = iter(rest)
    for arg in args:
        option, eq, value = arg.partition("=")
        if command == "run" and option == "--format":
            fmt = value if eq else next(args, "")
            if fmt not in ("json", "table"):
                raise _UsageError(f"--format takes json or table, not {fmt!r}")
        elif arg.startswith("-"):
            raise _UsageError(f"unknown option {arg!r} for {command}")
        else:
            operands.append(arg)
    if len(operands) != (command != "list"):
        wanted = "no operand" if command == "list" else "one case file"
        raise _UsageError(f"{command} takes {wanted}, not {len(operands)}")
    return command, operands[0] if operands else None, fmt


def _main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_HELP)
        return 0
    try:
        command, path, fmt = _command_line(argv)
    except _UsageError as e:
        return _fail(1, "usage_error", e)
    if command == "list":
        listing = {name: REGISTRY[name]["schema"] for name in sorted(REGISTRY)}
        sys.stdout.write(json.dumps(listing, indent=2) + "\n")
        return 0
    try:
        case = load_case(path)
        if command == "validate":
            validate_case(case)
            sys.stdout.write("OK\n")
            return 0
        report = run_case(case)
    except (CaseError, QuantityError) as e:
        return _fail(1, "invalid_case", e)
    except VlsiError as e:
        return _fail(2, "analysis_error", f"{type(e).__name__}: {e}")
    render = render_json if fmt == "json" else render_table
    sys.stdout.write(render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
