"""CLI adapters of the power analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import power
from .cli import INT, NUM, STR, _pick, _schema, _take, analysis
from .errors import DomainError


@analysis("signal_probability",
          {"expr": STR,
           "probabilities": {"type": "object", "additionalProperties": NUM}},
          ["expr", "probabilities"])
def _run_sig_prob(params):
    return _take(power.signal_probability(**params), p="", beta="transitions/cycle"), []


_LOADS = {"type": "array", "minItems": 1,
          "items": _schema({"c": NUM, "beta": NUM}, ["c", "beta"])}


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
        if p2 == 0:
            raise DomainError("compare_loads draw no power, so the ratio is undefined")
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
