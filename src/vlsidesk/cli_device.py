"""CLI adapters of the MOS device analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import device
from .cli import NUM, _device_props, _mos_device, _take, analysis


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
