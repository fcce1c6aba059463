"""RC interconnect: Elmore delay on trees, wire extraction, repeater
insertion, optimal inverter chains, and inverter output slew."""

import math

from . import Record
from .errors import DomainError, InputError, SizeError

_REL_TOL = 1e-9
BUFFER_SEGMENT_LIMIT = 100_000  # RcDriver segments one buffered_wire_delay sweep evaluates


class RcTree(Record):
    """Rooted RC tree: each non-root node hangs off its parent through a
    resistance; every node may carry a grounded capacitance. Unlike the
    other records it is mutable, and so unhashable."""

    _fields = ("root", "parent", "cap")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, root, parent=None, cap=None):
        self.root = root
        self.parent = {} if parent is None else parent  # node -> (parent, r_edge)
        self.cap = {} if cap is None else cap           # node -> farads

    @classmethod
    def from_edges(cls, root, edges, caps=None):
        tree = cls(root=root)
        for parent, child, r in edges:
            tree.add_edge(parent, child, r)
        for node, c in (caps or {}).items():
            tree.set_cap(node, c)
        return tree

    def add_edge(self, parent, child, r):
        if r < 0:
            raise InputError(f"edge {parent}->{child} has negative resistance")
        if child == self.root or child in self.parent:
            raise InputError(f"node {child!r} already has a parent (tree must be acyclic)")
        self.parent[child] = (parent, float(r))
        return self

    def set_cap(self, node, c):
        if c < 0:
            raise InputError(f"node {node!r} has negative capacitance")
        self.cap[node] = float(c)
        return self

    def nodes(self):
        seen = {self.root, *self.parent}
        for p, _ in self.parent.values():
            seen.add(p)
        return seen

    def path_to_root(self, node):
        """Edges (parent, child, r) from ``node`` up to the root."""
        path = []
        seen = set()
        while node != self.root:
            if node not in self.parent or node in seen:
                raise InputError(f"node {node!r} is not connected to the root")
            seen.add(node)
            p, r = self.parent[node]
            path.append((p, node, r))
            node = p
        return path

    def downstream_cap(self, node):
        """Capacitance at ``node`` and everything below it."""
        return self._downstream(node)[0][node]

    def _downstream(self, top):
        """Downstream capacitance of ``top`` and of every node below it, and
        those nodes with each parent before its children (one pass each)."""
        children = {}
        for child, (p, _) in self.parent.items():
            children.setdefault(p, []).append(child)
        order = [top]
        for node in order:  # grows while it is walked: breadth first
            order.extend(children.get(node, ()))
            if len(order) > len(self.parent) + 1:  # only a cycle revisits a node
                raise InputError(f"node {top!r} lies on a cycle")
        down = {}
        for node in reversed(order):
            total = self.cap.get(node, 0.0)
            for child in children.get(node, ()):
                total += down[child]
            down[node] = total
        return down, order


def _elmore_forms(tree, sink):
    """The resistance-oriented sum of r * downstream C along the sink's
    path, and the capacitance-oriented sum of C * resistance shared with
    that path, each in one pass over the tree."""
    down, order = tree._downstream(tree.root)
    path = tree.path_to_root(sink)
    tau_r = sum(r * down[child] for _, child, r in path)
    on_path = {child for _, child, _ in path}
    shared = {tree.root: 0.0}
    for node in order[1:]:
        p, r = tree.parent[node]
        shared[node] = shared[p] + r if node in on_path else shared[p]
    tau_c = 0.0
    for node in tree.nodes():
        c = tree.cap.get(node, 0.0)
        if not c:
            continue
        if node not in shared:
            raise InputError(f"node {node!r} is not connected to the root")
        tau_c += c * shared[node]
    return tau_r, tau_c


def elmore(tree: RcTree, sink, scale="tau") -> float:
    """First-moment delay from the root step to ``sink``.

    Computed with both the resistance-oriented and shared-path-resistance
    accumulations, which must agree; ``scale=0.69`` applies the usual
    50%-crossing factor.
    """
    if sink != tree.root and sink not in tree.parent:
        raise InputError(f"unknown sink {sink!r}")
    tau_r, tau_c = _elmore_forms(tree, sink)
    if abs(tau_r - tau_c) > _REL_TOL * max(abs(tau_r), abs(tau_c), 1e-30):
        raise AssertionError(f"Elmore accumulation mismatch: {tau_r} vs {tau_c}")
    factor = 0.69 if scale in (0.69, "0.69") else 1.0
    if scale not in ("tau", 0.69, "0.69"):
        raise InputError(f"scale must be 'tau' or 0.69, not {scale!r}")
    return tau_r * factor


class WireSpec(Record):
    """Lengths in one unit L: length and width in L, r_sheet in ohm/sq,
    c_area in F/L^2, c_fringe_per_edge in F/L."""
    _fields = ("length", "width", "r_sheet", "c_area", "c_fringe_per_edge", "fringe_edges")

    def __init__(self, length, width, r_sheet, c_area=0.0, c_fringe_per_edge=0.0,
                 fringe_edges=2):
        if length < 0 or width <= 0:
            raise InputError("wire needs length >= 0 and width > 0")
        self.__dict__.update(length=length, width=width, r_sheet=r_sheet, c_area=c_area,
                             c_fringe_per_edge=c_fringe_per_edge, fringe_edges=fringe_edges)


def wire_rc(spec: WireSpec) -> dict:
    """Total wire resistance and capacitance (area plate + fringe)."""
    r = spec.r_sheet * spec.length / spec.width
    c = spec.c_area * spec.length * spec.width \
        + spec.c_fringe_per_edge * spec.length * spec.fringe_edges
    return {"r": r, "c": c}


class FixedDelay(Record):
    _fields = ("delay",)

    def __init__(self, delay):
        if delay < 0:
            raise InputError("buffer delay must be >= 0")
        self.__dict__["delay"] = delay


class RcDriver(Record):
    _fields = ("r_drive", "c_diff_out", "c_gate_in")

    def __init__(self, r_drive, c_diff_out=0.0, c_gate_in=0.0):
        if min(r_drive, c_diff_out, c_gate_in) < 0:
            raise InputError("driver parameters must be >= 0")
        self.__dict__.update(r_drive=r_drive, c_diff_out=c_diff_out, c_gate_in=c_gate_in)


def _segment_sweep(n):
    try:
        counts = [n] if isinstance(n, int) else sorted({int(k) for k in n})
    except (TypeError, ValueError) as e:
        raise InputError("buffer counts must be integers") from e
    if not counts:
        raise InputError("need at least one buffer count")
    return counts


def buffered_wire_delay(wire: WireSpec, n_buffers, buffer, driver=None,
                        load_c=0.0, wire_delay_coeff=1.0) -> dict:
    """Delay of a wire split by ``n`` identical buffers into n+1 segments.

    With ``FixedDelay`` buffers each segment contributes
    ``coeff * R_seg * C_seg`` and each buffer its fixed delay. With
    ``RcDriver`` buffers the full RC composition is used: the driving
    stage charges its own diffusion, the segment cap, and the next gate;
    the segment resistance then charges the segment cap (lumped at its
    far end) plus the next gate. Optimum is the smallest arg-min of the
    sweep. The RcDriver segments of all counts, the sum of n+1, may number
    at most BUFFER_SEGMENT_LIMIT.
    """
    total = wire_rc(wire)
    r_tot, c_tot = total["r"], total["c"]
    delays = {}
    evaluated = 0
    for n in _segment_sweep(n_buffers):
        if n < 0:
            raise InputError("buffer count must be >= 0")
        segs = n + 1
        evaluated += segs
        if isinstance(buffer, RcDriver) and evaluated > BUFFER_SEGMENT_LIMIT:
            raise SizeError(f"the sweep's {evaluated} segments exceed the buffered wire "
                            f"bound of {BUFFER_SEGMENT_LIMIT}")
        r_seg, c_seg = r_tot / segs, c_tot / segs
        if isinstance(buffer, FixedDelay):
            delays[n] = segs * wire_delay_coeff * r_seg * c_seg + n * buffer.delay
        elif isinstance(buffer, RcDriver):
            t = 0.0
            for i in range(segs):
                drv = driver if (i == 0 and driver is not None) else buffer
                c_next = buffer.c_gate_in if i < n else load_c
                t += drv.r_drive * (drv.c_diff_out + c_seg + c_next) \
                    + r_seg * (c_seg + c_next)
            delays[n] = t
        else:
            raise InputError("buffer must be FixedDelay or RcDriver")
    best = min(delays, key=lambda n: (delays[n], n))
    return {"delays": delays, "optimal_n": best, "optimal_delay": delays[best]}


def inverter_chain_plan(f: float, cd_over_cg: float = 1.0) -> dict:
    """Stage ratio and inverter count driving a load ``f`` times the input.

    The optimum per-stage ratio alpha solves alpha*(ln alpha - 1) = Cd/Cg;
    the chain length is log_alpha(f) rounded up (never below one
    inverter).
    """
    if f < 1:
        raise InputError("load ratio f must be >= 1")
    if cd_over_cg < 0:
        raise InputError("cd_over_cg must be >= 0")
    lo, hi = 1.0 + 1e-12, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mid * (math.log(mid) - 1.0) < cd_over_cg:
            lo = mid
        else:
            hi = mid
    alpha = 0.5 * (lo + hi)
    total = max(1, math.ceil(math.log(f) / math.log(alpha) - 1e-9))
    return {"alpha": alpha, "total_inverters": total}


def output_slew(dev: "MosDevice", c_load: float, v_dd: float,
                v_from_pct: float = 0.9, v_to_pct: float = 0.1,
                method: str = "acc", i_avg: float = None) -> float:
    """Falling-output transition time between two V_DD fractions.

    ``acc`` divides the charge by the mean of the endpoint currents,
    ``diff`` integrates C*dV/I(V) exactly across the saturation and
    linear regions, ``avg_current`` uses a supplied mean current. A
    transition time that is not positive and finite, as when the currents
    underflow or overflow, is a DomainError.
    """
    from .device import square_law_current, threshold_voltage  # only this analysis needs them
    if not 0.0 < v_to_pct < v_from_pct <= 1.0:
        raise InputError("need 0 < v_to_pct < v_from_pct <= 1")
    if c_load <= 0 or v_dd <= 0:
        raise InputError("c_load and v_dd must be positive")
    v_hi, v_lo = v_from_pct * v_dd, v_to_pct * v_dd
    if method == "avg_current":
        if not i_avg or i_avg <= 0:
            raise InputError("avg_current method needs a positive i_avg")
        return _slew_time(c_load * (v_hi - v_lo) / i_avg)

    k = dev.k_prime * dev.wl_ratio
    v_ov = v_dd - abs(threshold_voltage(dev, 0.0))
    if v_ov <= 0:
        raise DomainError("device is off for the whole transition (v_dd <= |v_t|)")

    def current(v):
        return square_law_current(k, v_ov, v)

    if method == "acc":
        i_mean = 0.5 * (current(v_hi) + current(v_lo))
        if i_mean <= 0:
            raise DomainError("no discharge current at either endpoint")
        return _slew_time(c_load * (v_hi - v_lo) / i_mean)
    if method == "diff":
        i_hi, i_lo = current(v_hi), current(v_lo)
        if not (0.0 < i_hi < math.inf and 0.0 < i_lo < math.inf):
            raise DomainError(f"the discharge current is not positive and finite at both "
                              f"endpoints: {i_hi:g} A at {v_hi:g} V, {i_lo:g} A at {v_lo:g} V")
        t = 0.0
        if v_hi > v_ov:  # constant saturation current above v_ov
            t += c_load * (v_hi - max(v_lo, v_ov)) / i_hi
        top = min(v_hi, v_ov)
        if v_lo < top:   # closed-form 1/I integral through the linear region
            a = v_ov
            t += c_load / (k * a) * (math.log(top / (2 * a - top))
                                     - math.log(v_lo / (2 * a - v_lo)))
        return _slew_time(t)
    raise InputError(f"unknown slew method {method!r}")


def _slew_time(t):
    if not 0.0 < t < math.inf:
        raise DomainError(f"the transition time {t:g} s is not positive and finite")
    return t
