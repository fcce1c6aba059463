"""CLI adapters of the MOS device analyses, and of ``output_slew`` and
``access_sizing``, the other analyses that take a MosDevice.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import device
from .cli import NUM, _schema, _take, analysis

# schema name -> MosDevice field; the schema drops the trailing "_" of ``lambda_``
_MOS_FIELDS = {f.rstrip("_"): f for f in device.MosDevice._fields}


def _device_props(**more):
    """The MosDevice fields as schema properties, followed by ``more``."""
    return {**{k: {"enum": ["nmos", "pmos"]} if k == "polarity" else NUM
               for k in _MOS_FIELDS}, **more}


def _mos_device(params):
    """Split ``params`` into a MosDevice and the params that are not device
    fields (schema ``lambda`` and ``wl`` are the fields ``lambda_`` and ``w``)."""
    fields = {**_MOS_FIELDS, "wl": "w"}
    dev = device.MosDevice(**{fields[k]: v for k, v in params.items() if k in fields})
    return dev, {k: v for k, v in params.items() if k not in fields}


@analysis("threshold_voltage", _device_props(v_sb=NUM), ["vt0", "v_sb"])
def _run_threshold(params):
    dev, rest = _mos_device(params)
    return [("v_t", device.threshold_voltage(dev, **rest), "V")], []


@analysis("bias_point",
          _device_props(v_gs=NUM, v_ds=NUM, v_sb=NUM),
          ["k_prime", "vt0", "w", "l", "v_gs", "v_ds"])
def _run_bias(params):
    dev, rest = _mos_device(params)
    return _take(vars(device.bias_point(dev, **rest)), region="", i_d="A", v_t="V"), []


@analysis("mos_capacitances",
          _device_props(region={"enum": ["cutoff", "linear", "saturation"]}, v_reverse=NUM),
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
          {"config": {"enum": list(device.INVERTER_ELEMENTS)},
           "v_dd": NUM, "k_n": NUM, "vt_n": NUM, "k_p": NUM, "vt_p": NUM,
           "k_driver": NUM, "vt_driver": NUM, "k_load": NUM, "vt_load": NUM,
           "r_load": NUM},
          ["config", "v_dd"])
def _run_vtc(params):
    res = device.inverter_vtc(**params)
    diag = [f"regions at {k.removeprefix('at_')}: {v}" for k, v in res.regions.items()]
    return _take(vars(res), v_ol="V", v_oh="V", v_il="V", v_ih="V", v_m="V",
                 nm_l="V", nm_h="V"), diag


_VTC_POINTS = _schema({"v_ol": NUM, "v_oh": NUM, "v_il": NUM, "v_ih": NUM},
                      ["v_ol", "v_oh", "v_il", "v_ih"])


@analysis("noise_margins", {"driver": _VTC_POINTS, "receiver": _VTC_POINTS},
          ["driver", "receiver"])
def _run_nm(params):
    return _take(device.noise_margins(**params), nm_l="V", nm_h="V"), []


@analysis("output_slew",
          _device_props(c_load=NUM, v_dd=NUM, v_from_pct=NUM, v_to_pct=NUM,
                        method={"enum": ["acc", "diff", "avg_current"]}, i_avg=NUM),
          ["c_load", "v_dd", "method"])
def _run_slew(params):
    from . import interconnect  # no other analysis here needs it
    dev, rest = _mos_device(params)
    return [("t", interconnect.output_slew(dev, **rest), "s")], []


_BIAS_DEV = _schema(
    {"polarity": {"enum": ["nmos", "pmos"]},
     "k_prime": NUM, "vt0": NUM, "gamma": NUM, "phi_f2": NUM, "lambda": NUM, "wl": NUM,
     "bias": {"type": "array", "items": NUM, "minItems": 3, "maxItems": 3}},
    ["k_prime", "vt0", "bias"])


@analysis("access_sizing",
          {"fixed": _BIAS_DEV, "unknown": _BIAS_DEV}, ["fixed", "unknown"])
def _run_access_sizing(params):
    from . import memory  # no other analysis here needs it
    fixed, fixed_rest = _mos_device(params["fixed"])
    unknown, unknown_rest = _mos_device(params["unknown"])
    res = memory.access_sizing(fixed, fixed_rest["bias"], unknown, unknown_rest["bias"])
    return _take(res, wl="", i_balance="A"), [f"regions: {res['regions']}"]
