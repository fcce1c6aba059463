"""Test-logic utilities: modular (Galois) LFSRs from characteristic
polynomials, small gate-netlist simulation, stuck-at fault simulation,
and exhaustive ATPG.

Netlists are simulated on bitsets from the ``boolexpr`` truth-table
kernel: one bit per pattern, so a single pass evaluates every vector of a
fault simulation or the whole input space of an ATPG search.
"""

from functools import reduce
from operator import and_, or_, xor

from . import Record, boolexpr
from .errors import InputError, NetlistError, SizeError

ATPG_INPUT_LIMIT = 20
LFSR_PERIOD_LIMIT = 24
LFSR_STEP_LIMIT = 100_000


class GfPolynomial(Record):
    """Coefficient bits c_0..c_n over GF(2), c_0 = c_n = 1 for LFSR use."""
    _fields = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) & 1 for c in coeffs)
        if len(coeffs) < 2:
            raise InputError("polynomial needs degree >= 1")
        if coeffs[0] != 1:
            raise InputError("c_0 must be 1 for an LFSR polynomial")
        if coeffs[-1] != 1:
            raise InputError("leading coefficient c_n must be 1")
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def from_powers(cls, powers):
        if any(p < 0 for p in powers):
            raise InputError("polynomial powers must be >= 0")
        degree = max(powers)
        coeffs = [0] * (degree + 1)
        for p in powers:
            coeffs[p] = 1
        return cls(tuple(coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1


class Lfsr(Record):
    """Modular (Galois) LFSR: bit 0 takes the feedback, an XOR sits in
    front of stage i wherever c_i = 1 (0 < i < n). ``feedback`` holds the
    bits XORed in when the top stage is 1."""
    _fields = ("poly", "taps", "matrix", "feedback")

    def __init__(self, poly):
        n = poly.degree
        taps = tuple(i for i in range(1, n) if poly.coeffs[i])
        m = [[0] * n for _ in range(n)]
        m[0][n - 1] = 1
        for i in range(1, n):
            m[i][i - 1] = 1
            if i in taps:
                m[i][n - 1] ^= 1
        self.__dict__.update(poly=poly, taps=taps, matrix=tuple(tuple(r) for r in m),
                             feedback=1 | sum(1 << t for t in taps))

    @property
    def n(self):
        return self.poly.degree

    def step(self, state: int) -> int:
        shifted = (state << 1) & ((1 << self.n) - 1)
        return shifted ^ self.feedback if (state >> (self.n - 1)) & 1 else shifted


def lfsr_build(poly: GfPolynomial) -> Lfsr:
    """Modular LFSR with XOR taps at the polynomial's nonzero middle terms."""
    return Lfsr(poly)


def lfsr_run(lfsr: Lfsr, seed: int, steps: int) -> dict:
    """State sequence from ``seed`` plus its period (first recurrence of
    the seed, for degrees up to LFSR_PERIOD_LIMIT)."""
    if steps < 0:
        raise InputError("steps must be >= 0")
    if steps > LFSR_STEP_LIMIT:
        raise SizeError(f"steps exceeds the LFSR run bound of {LFSR_STEP_LIMIT}")
    n = lfsr.n
    if n > LFSR_PERIOD_LIMIT:
        raise SizeError(f"degree {n} exceeds the LFSR period search bound")
    seed &= (1 << n) - 1
    states = [seed]
    s = seed
    for _ in range(steps):
        s = lfsr.step(s)
        states.append(s)
    return {"states": states, "period": _period(lfsr, seed)}


def _period(lfsr, seed):
    """Least k >= 1 with seed * x^k = seed modulo the polynomial, by
    baby-step giant-step (Shanks 1971) in O(2^(n/2)) time and memory.

    A step multiplies the state by x. c_0 = 1 makes x invertible, so every
    state lies on a cycle of at most 2^n states. With the m = 2^ceil(n/2)
    baby states seed * x^j (0 <= j < m) stored, the first giant step i with
    seed * x^(-i*m) among them, as seed * x^j, gives the period i*m + j: a
    smaller period would have matched at an earlier i."""
    n, feedback = lfsr.n, lfsr.feedback
    mask, top, half = (1 << n) - 1, 1 << (n - 1), (n + 1) // 2
    m = 1 << half
    baby, s = {}, seed
    for j in range(m):
        baby[s] = j
        s = ((s << 1) & mask) ^ feedback if s & top else s << 1
        if s == seed:
            return j + 1
    inverse = 1  # x^(-m): m steps backwards from 1
    for _ in range(m):
        inverse = ((inverse ^ feedback) >> 1) | top if inverse & 1 else inverse >> 1
    s = seed
    for i in range(1, (mask >> half) + 1):
        a, b, s = s, inverse, 0  # s * x^(-m) by shift-and-xor
        while b:
            if b & 1:
                s ^= a
            a = ((a << 1) & mask) ^ feedback if a & top else a << 1
            b >>= 1
        if s in baby:
            return i * m + baby[s]
    return None


# Gate functions on bitsets; ``full`` is the all-ones mask of the pattern
# count, and the default of 1 also evaluates a single list of booleans.
_GATE_FUNCS = {
    "and": lambda ins, full=1: reduce(and_, ins),
    "or": lambda ins, full=1: reduce(or_, ins),
    "nand": lambda ins, full=1: full ^ reduce(and_, ins),
    "nor": lambda ins, full=1: full ^ reduce(or_, ins),
    "xor": lambda ins, full=1: reduce(xor, ins),
    "xnor": lambda ins, full=1: full ^ reduce(xor, ins),
    "not": lambda ins, full=1: full ^ ins[0],
    "buf": lambda ins, full=1: ins[0],
}


class Gate(Record):
    _fields = ("kind", "inputs", "output")

    def __init__(self, kind, inputs, output):
        inputs = tuple(inputs)
        if kind not in _GATE_FUNCS:
            raise NetlistError(f"unknown gate kind {kind!r}")
        if kind in ("not", "buf") and len(inputs) != 1:
            raise NetlistError(f"{kind} takes exactly one input")
        if kind not in ("not", "buf") and len(inputs) < 2:
            raise NetlistError(f"{kind} needs at least two inputs")
        self.__dict__.update(kind=kind, inputs=inputs, output=output)


class GateNetlist(Record):
    """``__init__`` also stores the gates in topological order as ``_order``."""
    _fields = ("inputs", "gates", "outputs")

    def __init__(self, inputs, gates, outputs):
        self.__dict__.update(inputs=tuple(inputs),
                             gates=tuple(g if isinstance(g, Gate) else Gate(**g)
                                         for g in gates),
                             outputs=tuple(outputs))
        driven = set(self.inputs)
        for g in self.gates:
            if g.output in driven:
                raise NetlistError(f"net {g.output!r} driven more than once")
            driven.add(g.output)
        for g in self.gates:
            for net in g.inputs:
                if net not in driven:
                    raise NetlistError(f"net {net!r} is never driven")
        for net in self.outputs:
            if net not in driven:
                raise NetlistError(f"output net {net!r} is never driven")
        self._toposort()

    def _toposort(self):
        order, ready = [], set(self.inputs)
        pending = list(self.gates)
        while pending:
            progress = [g for g in pending if all(i in ready for i in g.inputs)]
            if not progress:
                raise NetlistError("combinational cycle in netlist")
            for g in progress:
                order.append(g)
                ready.add(g.output)
            pending = [g for g in pending if g not in progress]
        self.__dict__["_order"] = tuple(order)

    def nets(self):
        return tuple(self.inputs) + tuple(g.output for g in self.gates)

    @classmethod
    def from_json(cls, obj):
        return cls(inputs=tuple(obj["inputs"]),
                   gates=tuple(Gate(kind=g["kind"], inputs=tuple(g["inputs"]),
                                    output=g["output"]) for g in obj["gates"]),
                   outputs=tuple(obj["outputs"]))


class StuckFault(Record):
    _fields = ("net", "value")

    def __init__(self, net, value):
        if value not in (0, 1):
            raise InputError("stuck value must be 0 or 1")
        self.__dict__.update(net=net, value=value)

    def label(self):
        return f"{self.net}/SA{self.value}"


def _simulate(net, tables, full, fault=None):
    """Bitset of every net, inputs first, from the input bitsets ``tables``;
    ``fault`` pins one net to all zeros or all ones."""
    stuck = full if fault is not None and fault.value else 0
    pinned = fault.net if fault is not None else None
    values = {n: stuck if n == pinned else tables[n] for n in net.inputs}
    for g in net._order:
        values[g.output] = stuck if g.output == pinned else \
            _GATE_FUNCS[g.kind]([values[i] for i in g.inputs], full)
    return values


def _vector_bits(net, vector):
    """0/1 values of a vector given as a list in input order or a dict."""
    if isinstance(vector, (list, tuple)):
        if len(vector) != len(net.inputs):
            raise InputError("vector length does not match the inputs")
        return [1 if v else 0 for v in vector]
    missing = [n for n in net.inputs if n not in vector]
    if missing:
        raise InputError(f"vector misses inputs {missing}")
    return [1 if vector[n] else 0 for n in net.inputs]


def _check_fault(net, fault):
    if fault is not None and fault.net not in net.nets():
        raise InputError(f"fault net {fault.net!r} does not exist")


def logic_simulate(net: GateNetlist, vector, fault: StuckFault = None) -> dict:
    """Topological evaluation of all nets; an optional fault pins one net."""
    bits = _vector_bits(net, vector)
    _check_fault(net, fault)
    values = _simulate(net, dict(zip(net.inputs, bits)), 1, fault)
    return {"outputs": {o: values[o] for o in net.outputs}, "nets": values}


def _output_diff(net, tables, full, good, fault):
    """Bitset of the patterns where ``fault`` changes some primary output."""
    bad = _simulate(net, tables, full, fault)
    diff = 0
    for o in net.outputs:
        diff |= good[o] ^ bad[o]
    return diff


def fault_simulate(net: GateNetlist, vectors, faults) -> list:
    """Parallel-pattern fault simulation: for each vector, the faults (in
    the given order) whose response differs from the good one at any
    primary output. Each fault is simulated once over all vectors."""
    columns = [_vector_bits(net, vec) for vec in vectors]
    for f in faults:
        _check_fault(net, f)
    tables = {name: sum(col[i] << j for j, col in enumerate(columns))
              for i, name in enumerate(net.inputs)}
    full = (1 << len(vectors)) - 1
    good = _simulate(net, tables, full)
    diffs = [(f.label(), _output_diff(net, tables, full, good, f)) for f in faults]
    return [{"vector": list(vec) if not isinstance(vec, dict) else dict(vec),
             "detected": [label for label, d in diffs if (d >> j) & 1]}
            for j, vec in enumerate(vectors)]


def atpg_exhaustive(net: GateNetlist, fault: StuckFault) -> dict:
    """Lexicographically smallest detecting vector (inputs in declaration
    order), or untestable when the whole space exposes nothing."""
    n = len(net.inputs)
    if n > ATPG_INPUT_LIMIT:
        raise SizeError(f"{n} inputs exceeds the exhaustive ATPG bound")
    _check_fault(net, fault)
    tables, full = boolexpr.pattern_tables(n)
    inputs = dict(zip(net.inputs, tables))
    diff = _output_diff(net, inputs, full, _simulate(net, inputs, full), fault)
    if not diff:
        return {"testable": False, "vector": None}
    vector = boolexpr.pattern_bits((diff & -diff).bit_length() - 1, n)
    if logic_simulate(net, vector)["outputs"] == \
            logic_simulate(net, vector, fault=fault)["outputs"]:
        raise AssertionError(f"ATPG vector {vector} does not detect {fault.label()}")
    return {"testable": True, "vector": vector}
