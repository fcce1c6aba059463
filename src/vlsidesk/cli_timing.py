"""CLI adapters of the timing analyses.

``cli.REGISTRY`` imports this module when one of them is first looked up."""

from . import timing
from .cli import BOOL, INT, NUM, STR, _pick, _schema, _take, analysis


_EDGE_ITEM = _schema({"launch": STR, "capture": STR, "t_cq_min": NUM, "t_cq_max": NUM,
                      "t_setup": NUM, "t_hold": NUM, "d_min": NUM, "d_max": NUM,
                      "skew": NUM, "skew_uncertainty": NUM},
                     ["launch", "capture"])


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
    "first_transition": _schema({"node": INT, "falling": BOOL, "input_rising": BOOL}, []),
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
