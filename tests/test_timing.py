import time
from fractions import Fraction

import pytest

from vlsidesk.errors import InfeasibleError, InputError, SizeError
from vlsidesk.timing import (
    LATCH_STAGE_LIMIT,
    RIPPLE_BLOCK_LIMIT,
    LatchPipeline,
    RegEdge,
    RingSpec,
    RippleArcs,
    check_timing,
    dff_margins,
    latch_constraints,
    latch_min_period_unbounded,
    pipeline_metrics,
    ring_analyze,
    ring_design,
    ring_first_transition,
    ripple_chain,
)


def test_reg_pair_slacks():
    # data path 9+6+2 min / 11+9+4 max; clock paths folded into skew+-u
    edge = RegEdge("ff1", "ff2", t_cq_min=9, t_cq_max=11, t_setup=4, t_hold=2,
                   d_min=8, d_max=13, skew=10.5, skew_uncertainty=3.5)
    res = check_timing([edge], period=15.0)
    assert res["edges"][0]["hold_slack"] == pytest.approx(1.0)
    assert res["edges"][0]["setup_slack"] == pytest.approx(-6.0)
    assert res["edges"][0]["setup_violation"]
    assert not res["edges"][0]["hold_violation"]


def test_pipeline_stage_both_violations():
    edge = RegEdge("a", "b", t_cq_min=0.5, t_cq_max=1.3, t_setup=1.1,
                   t_hold=0.9, d_min=1.0, d_max=5.0, skew=0.0,
                   skew_uncertainty=1.15)
    res = check_timing([edge], period=7.5)
    assert res["edges"][0]["setup_violation"]
    assert res["edges"][0]["hold_violation"]


SIX_EDGES = [
    RegEdge("ff1", "ff2", d_min=67, d_max=67, skew=3 - 24),
    RegEdge("ff2", "ff1", d_min=32, d_max=32, skew=24 - 3),
    RegEdge("ff3", "ff2", d_min=27, d_max=67, skew=3 - 13),
    RegEdge("ff3", "ff4", d_min=48, d_max=48, skew=4 - 13),
    RegEdge("ff4", "ff4", d_min=71, d_max=71, skew=0),
    RegEdge("ff4", "ff1", d_min=50, d_max=50, skew=24 - 4),
]


def test_six_edge_min_period_and_hold_bounds():
    res = check_timing(SIX_EDGES, period=100.0)
    assert res["t_min"] == pytest.approx(88.0)
    bounds = [e["hold_bound"] for e in res["edges"]]
    assert bounds == pytest.approx([88, 11, 37, 57, 71, 30])
    assert res["hold_bound"] == pytest.approx(11.0)


def test_period_shift_property(rng):
    for _ in range(20):
        e = RegEdge("a", "b", t_cq_min=rng.uniform(0, 2),
                    t_cq_max=rng.uniform(2, 4), t_setup=rng.uniform(0, 1),
                    t_hold=rng.uniform(0, 1), d_min=rng.uniform(0, 3),
                    d_max=rng.uniform(3, 9), skew=rng.uniform(-2, 2))
        t = rng.uniform(5, 20)
        delta = rng.uniform(0.1, 3)
        r1 = check_timing([e], t)["edges"][0]
        r2 = check_timing([e], t + delta)["edges"][0]
        assert r2["setup_slack"] - r1["setup_slack"] == pytest.approx(delta)
        assert r2["hold_slack"] == pytest.approx(r1["hold_slack"])


def test_pipeline_throughput():
    res = pipeline_metrics([0.2e-9, 1.8e-9, 0.8e-9, 1.1e-9, 1.1e-9],
                           n_items=1000)
    assert res["f_max"] == pytest.approx(555.5e6, rel=1e-3)
    assert res["total_latency"] == pytest.approx(1.807e-6, rel=1e-3)


def test_pipeline_stage_count_solver():
    res = pipeline_metrics([1e-9], target_period=0.5e-9, reg_overhead=100e-12,
                           total_comb_delay=3.74e-9)
    assert res["n_stages_needed"] == 10


def test_pipeline_single_stage():
    res = pipeline_metrics([2e-9], n_items=1)
    assert res["total_latency"] == pytest.approx(2e-9)


def test_pipeline_infeasible_target():
    with pytest.raises(InfeasibleError):
        pipeline_metrics([1e-9], target_period=0.1e-9, reg_overhead=0.2e-9)


def _stage_count_by_counting(total, reg, target):
    n = 1
    while total / n + reg >= target:
        n += 1
    return n


def test_pipeline_stage_count_matches_counting_loop():
    # the counting loop the closed form replaced, on a grid of small counts
    for total in (1e-12, 0.1, 0.3, 0.7, 1.0, 1.1, 2.0, 3.0, 3.74, 7.0, 10.0):
        for reg in (0.0, 0.05, 0.1, 0.2, -0.1):
            for target in (0.15, 0.25, 0.3, 0.31, 0.5, 0.7, 1.0, 1.3, 2.5):
                if reg >= target:
                    continue
                got = pipeline_metrics([1.0], reg_overhead=reg, target_period=target,
                                       total_comb_delay=total)["n_stages_needed"]
                assert got == _stage_count_by_counting(total, reg, target), \
                    (total, reg, target)
    for a in range(1, 40):
        for b in range(1, 40):
            got = pipeline_metrics([1.0], target_period=b / 10,
                                   total_comb_delay=a / 10)["n_stages_needed"]
            assert got == _stage_count_by_counting(a / 10, 0.0, b / 10), (a, b)


def test_pipeline_stage_count_at_rounding_boundary():
    # reg dominates, so float rounding moves the boundary far from the ceiling
    for k in range(1, 40):
        target = 1.0 + k * 2.2e-16
        got = pipeline_metrics([1.0], reg_overhead=1.0, target_period=target,
                               total_comb_delay=1e-17)["n_stages_needed"]
        assert got == _stage_count_by_counting(1e-17, 1.0, target)


def test_pipeline_tiny_target_ends_quickly():
    t0 = time.perf_counter()
    res = pipeline_metrics([1e-9], target_period=1e-300)
    assert time.perf_counter() - t0 < 1.0
    n = res["n_stages_needed"]
    assert 1e-9 / n < 1e-300 <= 1e-9 / (n - 1)


def test_pipeline_non_finite_stage_count():
    with pytest.raises(InfeasibleError):
        pipeline_metrics([1.0], target_period=1e-310)


ARCS = RippleArcs(xy_to_s=1.0, xy_to_bout=2.0, bin_to_s=1.5,
                  bin_to_bout=0.5, n_blocks=8)


def test_ripple_chain_eight_blocks():
    res = ripple_chain(ARCS)
    assert res["s_stable"][0] == pytest.approx(1.5)
    assert res["s_stable"][3] == pytest.approx(4.5)
    assert res["bout_stable"][3] == pytest.approx(3.5)
    assert res["s_stable"][6] == pytest.approx(6.0)
    assert res["bout_stable"][7] == pytest.approx(5.5)
    assert res["critical_delay"] == pytest.approx(6.5)


@pytest.mark.parametrize("n_blocks", [RIPPLE_BLOCK_LIMIT + 1, int(1e308)])
def test_ripple_blocks_beyond_the_bound_are_a_size_error(n_blocks):
    t0 = time.perf_counter()
    with pytest.raises(SizeError, match="ripple chain bound"):
        ripple_chain(RippleArcs(1.0, 1.0, 1.0, 1.0, n_blocks))
    assert time.perf_counter() - t0 < 1.0


def test_ripple_chain_single_block():
    res = ripple_chain(RippleArcs(1.0, 2.0, 1.5, 0.5, 1))
    assert res["s_stable"][0] == pytest.approx(1.5)


def test_ripple_chain_zero_arcs():
    res = ripple_chain(RippleArcs(0, 0, 0, 0, 4))
    assert res["critical_delay"] == 0.0


def test_ripple_bout_nondecreasing_along_chain():
    res = ripple_chain(ARCS)
    bouts = res["bout_stable"]
    assert all(a <= b for a, b in zip(bouts, bouts[1:]))


def test_ripple_monotone_in_arcs(rng):
    base = ripple_chain(ARCS)["critical_delay"]
    for field in ("xy_to_s", "xy_to_bout", "bin_to_s", "bin_to_bout"):
        kwargs = {"xy_to_s": 1.0, "xy_to_bout": 2.0, "bin_to_s": 1.5,
                  "bin_to_bout": 0.5, "n_blocks": 8}
        kwargs[field] *= 2
        assert ripple_chain(RippleArcs(**kwargs))["critical_delay"] >= base


RING_MIXED = RingSpec(stages=[(50, 50), (40, 60), (50, 50), (60, 40), (60, 40)])


def test_ring_mixed_duty():
    res = ring_analyze(RING_MIXED)
    assert res["period"] == pytest.approx(500.0)
    assert res["t_high"] == pytest.approx(260.0)
    assert res["duty"] == pytest.approx(0.52)


def test_ring_uniform_formula():
    for n_half in (1, 2, 3, 5):
        n = 2 * n_half + 1
        res = ring_analyze(RingSpec(stages=[(5.0, 3.0)] * n))
        assert res["t_high"] == pytest.approx(n_half * 5 + (n_half + 1) * 3)
        assert res["t_low"] == pytest.approx(n_half * 3 + (n_half + 1) * 5)
        assert res["period"] == pytest.approx(8.0 * n)


def test_ring_period_independent_of_probe():
    for k in range(5):
        res = ring_analyze(RingSpec(stages=RING_MIXED.stages, probe_node=k))
        assert res["period"] == pytest.approx(500.0)


def test_ring_adjacent_nodes_shift_by_stage_delay():
    n = len(RING_MIXED.stages)
    for k in range(n):
        here = ring_analyze(RingSpec(stages=RING_MIXED.stages, probe_node=k))
        there = ring_analyze(RingSpec(stages=RING_MIXED.stages,
                                      probe_node=(k + 1) % n))
        stage = RING_MIXED.stages[(k + 1) % n]
        assert here["t_high"] - there["t_low"] == pytest.approx(
            stage.t_phl - stage.t_plh)


def test_ring_first_fall():
    spec = RingSpec(stages=[(50.0, 30.0)] * 5)
    assert ring_analyze(spec)["period"] == pytest.approx(400.0)
    t = ring_first_transition(spec, query_node=4, falling=True)
    assert t == pytest.approx(190.0)


def test_ring_design_45_percent():
    res = ring_design(5, 2e-9, 0.45)
    assert res["t_plh"] == pytest.approx(0.3e-9)
    assert res["t_phl"] == pytest.approx(0.1e-9)


def test_ring_design_symmetric():
    res = ring_design(7, 1.4e-9, 0.5)
    assert res["t_plh"] == pytest.approx(res["t_phl"])
    assert res["t_plh"] == pytest.approx(1.4e-9 / 14)


def test_ring_design_round_trip(rng):
    for _ in range(20):
        n = rng.choice([3, 5, 7, 9])
        period = rng.uniform(1.0, 100.0)
        half = (n - 1) // 2
        # uniform stages can only realize duty in (N, N+1)/(2N+1)
        lo = half / n + 1e-3
        hi = (half + 1) / n - 1e-3
        duty = rng.uniform(lo, hi)
        d = ring_design(n, period, duty)
        res = ring_analyze(RingSpec(stages=[(d["t_plh"], d["t_phl"])] * n))
        assert res["period"] == pytest.approx(period, rel=1e-12)
        assert res["duty"] == pytest.approx(duty, rel=1e-9)


def test_ring_design_infeasible_duty():
    with pytest.raises(InfeasibleError):
        ring_design(5, 2.0, 0.05)


def test_latch_constraint_strings_four_stage():
    res = latch_constraints(LatchPipeline(n_stages=4, duty=Fraction(2, 5)))
    texts = [c["text"] for c in res["constraints"]]
    assert texts == [
        "D1 + Dcq <= T - Ddc - Tskew",
        "D1 + D2 + Dcq + Ddq <= 1.4T - Ddc - Tskew",
        "D1 + D2 + D3 + Dcq + 2Ddq <= 2T - Ddc - Tskew",
        "D1 + D2 + D3 + D4 + Dcq + 3Ddq <= 2.4T - Ddc - Tskew",
        "D2 + Dcq <= T - Ddc - Tskew",
        "D2 + D3 + Dcq + Ddq <= 1.6T - Ddc - Tskew",
        "D2 + D3 + D4 + Dcq + 2Ddq <= 2T - Ddc - Tskew",
        "D3 + Dcq <= T - Ddc - Tskew",
        "D3 + D4 + Dcq + Ddq <= 1.4T - Ddc - Tskew",
        "D4 + Dcq <= T - Ddc - Tskew",
    ]
    assert len(texts) == 10


@pytest.mark.parametrize("n_stages", [LATCH_STAGE_LIMIT + 1, int(1e308)])
def test_latch_stages_beyond_the_bound_are_a_size_error(n_stages):
    t0 = time.perf_counter()
    with pytest.raises(SizeError, match="latch constraint bound"):
        latch_constraints(LatchPipeline(n_stages=n_stages, duty=Fraction(2, 5)))
    assert time.perf_counter() - t0 < 1.0


def test_latch_duty_defaults_to_one_half_as_a_fraction():
    pipe = LatchPipeline(n_stages=2)
    assert type(pipe.duty) is Fraction and pipe.duty == Fraction(1, 2)
    assert pipe == LatchPipeline(n_stages=2, duty=Fraction(1, 2))
    # L0 opens at 0, L1 at T/2 and closes at T, L2 closes at 3T/2: the runs
    # 1, 1..2 and 2 have windows T, 3T/2 and 3T/2 - T/2 = T
    windows = [c["window"] for c in latch_constraints(pipe)["constraints"]]
    assert all(type(w) is Fraction for w in windows)
    assert windows == [Fraction(1), Fraction(3, 2), Fraction(1)]


def test_latch_single_stage_window():
    res = latch_constraints(LatchPipeline(n_stages=1, duty=Fraction(2, 5)))
    assert res["constraints"][0]["text"] == "D1 + Dcq <= T - Ddc - Tskew"
    assert res["constraints"][0]["window"] == 1


def test_latch_min_period_converges_to_2d():
    d = 3.0
    for n in (8, 20, 60):
        res = latch_constraints(LatchPipeline(
            n_stages=n, duty=Fraction(1, 2), deltas=(d,) * n))
        assert res["t_min"] == pytest.approx(2 * n * d / (n + 1))
    assert latch_min_period_unbounded(d) == pytest.approx(2 * d)


def test_latch_zero_delays_always_feasible():
    res = latch_constraints(LatchPipeline(
        n_stages=3, duty=Fraction(1, 2), deltas=(0, 0, 0), period=1e-12))
    assert res["t_min"] == 0.0
    assert res["feasible"]


def test_latch_numeric_feasibility():
    pipe = LatchPipeline(n_stages=2, duty=Fraction(1, 2), deltas=(2.0, 2.0),
                         d_cq=0.1, d_dq=0.1, d_dc=0.05, skew=0.05, period=3.2)
    res = latch_constraints(pipe)
    # all-run constraint: 4.3 work over 1.5 cycles
    assert res["t_min"] == pytest.approx(max((2.0 + 0.2) / 1.0, 4.3 / 1.5))
    assert res["feasible"] == (3.2 >= res["t_min"])


def test_dff_margins():
    res = dff_margins((1, 2, 3, 4, 5, 6))
    assert res["t_setup"] == 5
    assert res["t_hold"] == 3
    assert dff_margins((0, 0, 0, 0, 0, 0)) == {"t_setup": 0, "t_hold": 0}


def test_dff_margins_validates():
    with pytest.raises(InputError):
        dff_margins((1, 2, 3))
