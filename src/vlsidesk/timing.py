"""Register-pair timing checks, pipeline metrics, ripple-chain arrival
propagation, ring oscillators, latch time borrowing, and NAND-DFF
margins. Same-edge hold convention; skew = capture arrival - launch
arrival, with an optional symmetric uncertainty that tightens both the
setup and the hold check."""

import math

from . import Record
from .errors import InfeasibleError, InputError, SizeError

LATCH_STAGE_LIMIT = 64
RIPPLE_BLOCK_LIMIT = 100_000


class RegEdge(Record):
    _fields = ("launch", "capture", "t_cq_min", "t_cq_max", "t_setup", "t_hold", "d_min",
               "d_max", "skew", "skew_uncertainty")

    def __init__(self, launch, capture, t_cq_min=0.0, t_cq_max=0.0, t_setup=0.0, t_hold=0.0,
                 d_min=0.0, d_max=0.0, skew=0.0, skew_uncertainty=0.0):
        if t_cq_min > t_cq_max:
            raise InputError("t_cq_min exceeds t_cq_max")
        if d_min > d_max:
            raise InputError("d_min exceeds d_max")
        if min(t_cq_min, t_setup, t_hold, d_min, skew_uncertainty) < 0:
            raise InputError("times must be >= 0 (skew may be signed)")
        self.__dict__.update(launch=launch, capture=capture, t_cq_min=t_cq_min,
                             t_cq_max=t_cq_max, t_setup=t_setup, t_hold=t_hold, d_min=d_min,
                             d_max=d_max, skew=skew, skew_uncertainty=skew_uncertainty)


def check_timing(edges, period) -> dict:
    """Setup/hold slacks per register pair plus the binding minimum period.

    setup_slack = T + skew - (t_cq_max + d_max + t_setup), with the skew
    taken at its early extreme; hold_slack = t_cq_min + d_min - t_hold -
    skew at its late extreme. ``hold_bound`` is the largest capture-side
    hold time each edge could tolerate.
    """
    if period <= 0:
        raise InputError("period must be positive")
    per_edge = []
    t_min = 0.0
    tightest_hold = None
    for e in edges:
        skew_setup = e.skew - e.skew_uncertainty
        skew_hold = e.skew + e.skew_uncertainty
        required = e.t_cq_max + e.d_max + e.t_setup - skew_setup
        setup_slack = period - required
        hold_slack = e.t_cq_min + e.d_min - e.t_hold - skew_hold
        hold_bound = e.t_cq_min + e.d_min - skew_hold
        per_edge.append({
            "launch": e.launch, "capture": e.capture,
            "setup_slack": setup_slack, "hold_slack": hold_slack,
            "min_period": required, "hold_bound": hold_bound,
            "setup_violation": setup_slack < 0, "hold_violation": hold_slack < 0,
        })
        t_min = max(t_min, required)
        tightest_hold = hold_bound if tightest_hold is None \
            else min(tightest_hold, hold_bound)
    return {"edges": per_edge, "t_min": t_min, "hold_bound": tightest_hold}


def pipeline_metrics(stage_delays, n_items=1, reg_overhead=0.0,
                     target_period=None, total_comb_delay=None) -> dict:
    """Throughput/latency of a linear pipeline, plus the smallest stage
    count meeting a target period when one is requested."""
    if any(d <= 0 for d in stage_delays):
        raise InputError("stage delays must be positive")
    period = max(stage_delays) + reg_overhead
    out = {
        "period": period,
        "f_max": 1.0 / period,
        "total_latency": (n_items + len(stage_delays) - 1) * period,
    }
    if target_period is not None:
        if total_comb_delay is None:
            total_comb_delay = sum(stage_delays)
        if reg_overhead >= target_period:
            raise InfeasibleError("register overhead alone exceeds the target period")
        out["n_stages_needed"] = _stages_needed(total_comb_delay, reg_overhead,
                                                target_period)
    return out


def _stages_needed(total, reg, target):
    """Smallest n >= 1 with total/n + reg < target. The ceiling of
    total/(target - reg) bounds it; bisection under that same test then
    settles the count that floating-point rounding puts at the boundary."""
    def fits(n):
        return total / n + reg < target
    try:
        hi = max(1, math.floor(total / (target - reg)) + 1)
        while not fits(hi):
            hi *= 2
    except (OverflowError, ValueError) as e:
        raise InfeasibleError("no finite stage count meets the target period") from e
    lo = 0  # n = 0 never fits
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


class RippleArcs(Record):
    _fields = ("xy_to_s", "xy_to_bout", "bin_to_s", "bin_to_bout", "n_blocks")

    def __init__(self, xy_to_s, xy_to_bout, bin_to_s, bin_to_bout, n_blocks):
        if n_blocks < 1:
            raise InputError("need at least one block")
        if min(xy_to_s, xy_to_bout, bin_to_s, bin_to_bout) < 0:
            raise InputError("arc delays must be >= 0")
        self.__dict__.update(xy_to_s=xy_to_s, xy_to_bout=xy_to_bout, bin_to_s=bin_to_s,
                             bin_to_bout=bin_to_bout, n_blocks=n_blocks)


def ripple_chain(arcs: RippleArcs) -> dict:
    """Stable times of a borrow/carry ripple chain with all primary inputs
    (and the block-0 chain input) switching at t = 0."""
    if arcs.n_blocks > RIPPLE_BLOCK_LIMIT:
        raise SizeError(f"n_blocks exceeds the ripple chain bound of {RIPPLE_BLOCK_LIMIT}")
    s, bout = [], []
    b_in = 0.0
    for _ in range(arcs.n_blocks):
        s.append(max(arcs.xy_to_s, b_in + arcs.bin_to_s))
        bout.append(max(arcs.xy_to_bout, b_in + arcs.bin_to_bout))
        b_in = bout[-1]
    return {"s_stable": s, "bout_stable": bout,
            "critical_delay": max(s[-1], bout[-1], max(s))}


class RingStage(Record):
    _fields = ("t_plh", "t_phl")

    def __init__(self, t_plh, t_phl):
        if t_plh < 0 or t_phl < 0:
            raise InputError("stage delays must be >= 0")
        self.__dict__.update(t_plh=t_plh, t_phl=t_phl)


class RingSpec(Record):
    """An odd count of ``RingStage``; node k is the output of stage k."""
    _fields = ("stages", "probe_node")

    def __init__(self, stages, probe_node=0):
        stages = tuple(s if isinstance(s, RingStage) else RingStage(*s) for s in stages)
        if len(stages) % 2 == 0:
            raise InputError("ring needs an odd number of stages")
        self.__dict__.update(stages=stages, probe_node=probe_node)


def ring_analyze(spec: RingSpec) -> dict:
    """Steady-state oscillation by walking the single transition wave
    around the loop twice (one full period = 2N transitions)."""
    n = len(spec.stages)
    probe = spec.probe_node % n

    def wave(start_node, rising):
        # transition appears at start_node, propagate one full loop
        t, node, rise = 0.0, start_node, rising
        for _ in range(n):
            node = (node + 1) % n
            rise = not rise
            stage = spec.stages[node]
            t += stage.t_plh if rise else stage.t_phl
        return t

    t_high = wave(probe, rising=True)   # rise at probe until the fall returns
    t_low = wave(probe, rising=False)
    period = sum(s.t_plh + s.t_phl for s in spec.stages)
    if abs((t_high + t_low) - period) > 1e-9 * max(period, 1e-30):
        raise AssertionError("loop traversal does not close the period")
    return {"period": period, "t_high": t_high, "t_low": t_low,
            "duty": t_high / period if period else 0.0}


def ring_first_transition(spec: RingSpec, query_node: int,
                          falling: bool = True, input_rising: bool = True) -> float:
    """Time of the first requested transition at ``query_node`` after the
    ring input (stage 0 input) flips at t = 0."""
    n = len(spec.stages)
    t, rise = 0.0, input_rising
    node = -1  # stage 0 input
    for _ in range(4 * n):
        node = (node + 1) % n
        rise = not rise
        stage = spec.stages[node]
        t += stage.t_plh if rise else stage.t_phl
        if node == query_node % n and rise != falling:
            return t
    raise InputError("query node never sees the requested transition")


def ring_design(n_stages: int, period: float, duty: float) -> dict:
    """Uniform stage delays realizing a period and duty cycle.

    Inverts t_high = N*t_plh + (N+1)*t_phl (with n_stages = 2N+1) and the
    complementary t_low expression.
    """
    if n_stages % 2 == 0 or n_stages < 1:
        raise InputError("ring needs an odd stage count")
    if not 0 < duty < 1:
        raise InputError("duty must be in (0, 1)")
    half = (n_stages - 1) // 2
    t_high, t_low = duty * period, (1 - duty) * period
    # [N, N+1; N+1, N] system
    t_plh = (half * t_high - (half + 1) * t_low) / (half**2 - (half + 1) ** 2)
    t_phl = period / n_stages - t_plh
    if t_plh <= 0 or t_phl <= 0:
        raise InfeasibleError(
            f"duty {duty} is unreachable with {n_stages} uniform stages")
    return {"t_plh": t_plh, "t_phl": t_phl}


class LatchPipeline(Record):
    """Alternating-phase transparent-latch pipeline. Stage k sits between
    latches L_{k-1} and L_k; even latches are open for duty*T starting at
    multiples of T, odd latches for the rest of the cycle. ``deltas`` are
    the optional worst-case CLB delays, ``d_dc`` the setup and ``d_cd`` the
    hold time."""
    _fields = ("n_stages", "duty", "deltas", "d_cq", "d_dq", "d_dc", "d_cd", "skew", "period")

    def __init__(self, n_stages, duty=0.5, deltas=(), d_cq=0.0, d_dq=0.0,
                 d_dc=0.0, d_cd=0.0, skew=0.0, period=0.0):
        from fractions import Fraction  # only the latch analysis loads fractions and decimal
        duty = Fraction(duty).limit_denominator(10**6)
        deltas = tuple(deltas)
        if not 0 < duty < 1:
            raise InputError("duty must be in (0, 1)")
        if n_stages < 1:
            raise InputError("need at least one stage")
        if deltas and len(deltas) != n_stages:
            raise InputError("deltas must match n_stages")
        self.__dict__.update(n_stages=n_stages, duty=duty, deltas=deltas, d_cq=d_cq,
                             d_dq=d_dq, d_dc=d_dc, d_cd=d_cd, skew=skew, period=period)


def _latch_open(k, duty):
    # in units of T; duty is a Fraction, so every window is one too
    return k // 2 if k % 2 == 0 else k // 2 + duty


def _latch_close(k, duty):
    return _latch_open(k, duty) + (duty if k % 2 == 0 else 1 - duty)


def _coeff_str(w):
    if w == 1:
        return "T"
    f = float(w)
    s = f"{f:g}"
    return f"{s}T"


def latch_constraints(p: LatchPipeline) -> dict:
    """Max-delay (time-borrowing) inequality set for every contiguous
    stage run, the implied minimum period, and feasibility at p.period.

    A run of CLBs i..j launches at the opening edge of latch i-1 and must
    settle Δ_DC + skew before latch j closes, so its window is
    close(L_j) - open(L_{i-1}) cycles.
    """
    n, duty = p.n_stages, p.duty
    if n > LATCH_STAGE_LIMIT:  # n^2 / 2 inequalities of up to n terms each
        raise SizeError(f"n_stages exceeds the latch constraint bound of {LATCH_STAGE_LIMIT}")
    constraints = []
    t_min = 0.0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            w = _latch_close(j, duty) - _latch_open(i - 1, duty)
            run = list(range(i, j + 1))
            n_dq = j - i
            lhs = " + ".join([f"D{k}" for k in run] + ["Dcq"]
                             + (["Ddq"] if n_dq == 1 else
                                [f"{n_dq}Ddq"] if n_dq else []))
            text = f"{lhs} <= {_coeff_str(w)} - Ddc - Tskew"
            entry = {"stages": tuple(run), "window": w, "text": text}
            if p.deltas:
                workload = sum(p.deltas[k - 1] for k in run) + p.d_cq \
                    + n_dq * p.d_dq + p.d_dc + p.skew
                entry["required_period"] = workload / float(w)
                t_min = max(t_min, entry["required_period"])
            constraints.append(entry)
    out = {"constraints": constraints, "t_min": t_min if p.deltas else None}
    if p.deltas and p.period:
        out["feasible"] = p.period >= t_min - 1e-15 * max(t_min, 1.0)
    return out


def latch_min_period_unbounded(delta: float, d_dq: float = 0.0) -> float:
    """Minimum period of an arbitrarily long (or cyclic) uniform latch
    pipeline: each added stage contributes delta + d_dq of work against
    half a cycle of window, so T >= 2*(delta + d_dq) in the limit."""
    if delta < 0 or d_dq < 0:
        raise InputError("delays must be >= 0")
    return 2.0 * (delta + d_dq)


def dff_margins(t: tuple) -> dict:
    """Conservative setup/hold of the six-NAND bistable DFF: the data must
    clear gates 4 then 1 before the edge, and hold until gate 2 or 3
    blocks it."""
    if len(t) != 6:
        raise InputError("need six gate delays")
    if min(t) < 0:
        raise InputError("gate delays must be >= 0")
    t1, t2, t3, t4, _, _ = t
    return {"t_setup": t4 + t1, "t_hold": max(t2, t3)}
