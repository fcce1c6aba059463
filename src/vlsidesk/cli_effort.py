"""CLI adapters of the logical-effort analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import effort
from .cli import _DEFS, BOOL, INT, NUM, STR, _pick, _schema, _take, analysis
from .units import format_number


def _sized_gate(obj, mu):
    from . import gates  # only derive_template builds gates
    pun = obj["pun"]
    if "pullup_load" in pun:
        pun = effort.PullupLoad(pun["pullup_load"])
    else:
        pun = gates.network_from_json(pun)
    return gates.CompoundGate(pdn=gates.network_from_json(obj["pdn"]), pun=pun,
                              w_n=1.0, w_p=mu, mu=mu)


_NETWORK = {"$ref": "#/$defs/network"}
_PULL_UP = {"oneOf": [_NETWORK, _schema({"pullup_load": NUM}, ["pullup_load"])]}


@analysis("derive_template",
          {"pdn": _NETWORK, "pun": _PULL_UP, "mu": NUM, "cd_over_cg": NUM,
           "reference": _schema({"pdn": _NETWORK, "pun": _PULL_UP, "mu": NUM}, ["pdn", "pun"])},
          ["pdn", "pun"], **{"$defs": _DEFS})
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


_STAGE_ITEM = _schema({"g": NUM, "p": NUM, "b": NUM, "name": STR}, ["g", "p"])


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
