"""CLI adapters of the compound-gate analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import gates
from .cli import _DEFS, INT, NUM, STR, _pick, analysis
from .errors import DomainError


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
    if case.v_dd == 0:
        raise DomainError("v_out_over_v_dd is undefined for v_dd = 0")
    return [("v_out", v, "V"), ("v_out_over_v_dd", v / case.v_dd, "")], []


@analysis("evaluate_network",
          {"network": {"$ref": "#/$defs/network"},
           "assignment": {"type": "object", "additionalProperties": INT}},
          ["network", "assignment"], **{"$defs": _DEFS})
def _run_eval_net(params):
    conducts = gates.evaluate_network(gates.network_from_json(params["network"]),
                                      params["assignment"])
    return [("conducts", int(conducts), "")], []
