"""SRAM electrical analysis: cell node voltages, device sizing balances,
resistive-load bounds, bitline parasitics, blocked-array read delay,
decoder transistor counts, and physical address decomposition.

Cell KCL ignores body effect; where a bias-dependent threshold matters
(access-device sizing) the full device model is used instead.
"""

import math

from . import Record
from .errors import DomainError, InfeasibleError, InputError, SolverError


class CellDevice(Record):
    """One cell transistor reduced to what the quadratic KCL needs: k_prime
    in A/V^2, the ratio wl = W/L and the threshold magnitude vt in V."""
    _fields = ("k_prime", "wl", "vt")

    def __init__(self, k_prime, wl, vt):
        if k_prime <= 0 or wl <= 0:
            raise InputError("k_prime and wl must be positive")
        self.__dict__.update(k_prime=k_prime, wl=wl, vt=vt)

    @property
    def k(self):
        return self.k_prime * self.wl


class SramCell(Record):
    """``v_bitline`` None means v_dd on read and 0 on write."""
    _fields = ("access", "pulldown", "pullup", "v_dd", "v_bitline")

    def __init__(self, access, pulldown, pullup=None, v_dd=1.0, v_bitline=None):
        if v_dd <= 0:
            raise InputError("v_dd must be positive")
        self.__dict__.update(access=access, pulldown=pulldown, pullup=pullup, v_dd=v_dd,
                             v_bitline=v_bitline)


def _square(x):
    """x**2, or inf where it overflows, which float ** raises for."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _smaller_root(a, b, c):
    disc = b * b - 4.0 * a * c
    if not (math.isfinite(disc) and 0 < 2.0 * a < math.inf):
        raise DomainError(f"cell KCL coefficients {a:g}, {b:g}, {c:g} overflow or underflow")
    if disc < 0:
        raise SolverError("cell KCL has no real solution")
    root = math.sqrt(disc)
    return (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)


def cell_node_voltage(cell: SramCell, mode: str) -> dict:
    """Disturbed storage-node voltage from the two-device current balance.

    read_disturb: saturated access (gate at V_DD) charges the low node
    against the linear pulldown. write: linear access (bitline low) pulls
    the high node down against the saturated pullup. The smaller quadratic
    root is the physical one; regions are re-checked afterwards.
    """
    vdd = cell.v_dd
    if mode == "read_disturb":
        a_dev, p_dev = cell.access, cell.pulldown
        ov_a = vdd - a_dev.vt
        ov_p = vdd - p_dev.vt
        # k_a (ov_a - v)^2 = k_p (2 ov_p v - v^2)
        a = a_dev.k + p_dev.k
        b = -2.0 * (a_dev.k * ov_a + p_dev.k * ov_p)
        c = a_dev.k * _square(ov_a)
        lo, hi = _smaller_root(a, b, c)
        v = lo
        v_bit = vdd if cell.v_bitline is None else cell.v_bitline
        regions_ok = (v_bit - v) >= (ov_a - v) - 1e-12 and v <= ov_p
        region_note = {"access": "saturation", "pulldown": "linear"}
    elif mode == "write":
        if cell.pullup is None:
            raise InputError("write mode needs the pullup device")
        a_dev, u_dev = cell.access, cell.pullup
        ov_a = vdd - a_dev.vt
        ov_u = vdd - u_dev.vt
        # k_u ov_u^2 = k_a (2 ov_a v - v^2)
        a = a_dev.k
        b = -2.0 * a_dev.k * ov_a
        c = u_dev.k * _square(ov_u)
        lo, hi = _smaller_root(a, b, c)
        v = lo
        regions_ok = v < ov_a and v <= u_dev.vt + 1e-12
        region_note = {"access": "linear", "pullup": "saturation"}
    else:
        raise InputError(f"unknown mode {mode!r}")
    diagnostics = {"roots": (lo, hi), "regions": region_note}
    if not (0.0 <= v <= vdd) or not regions_ok:
        raise SolverError(
            f"no physically consistent node voltage; quadratic roots {lo:.4g}, "
            f"{hi:.4g} violate the assumed regions {region_note}")
    return {"v_node": v, "discarded_root": hi, "regions": region_note}


def access_sizing(fixed: "MosDevice", fixed_bias: tuple,
                  unknown: "MosDevice", unknown_bias: tuple) -> dict:
    """W/L of ``unknown`` equalizing its current with ``fixed`` at the trip
    point. Biases are (v_gs, v_ds, v_sb) source-referenced magnitudes;
    body effect applies wherever gamma is set on the device."""
    from .device import MosDevice, bias_point  # only two analyses here need device
    op_fixed = bias_point(fixed, *fixed_bias)
    if op_fixed.i_d <= 0:
        raise InfeasibleError("reference device carries no current at the trip point")
    unit = {f: getattr(unknown, f) for f in MosDevice._fields} | {"w": 1.0, "l": 1.0, "l_d": 0.0}
    op_unit = bias_point(MosDevice(**unit), *unknown_bias)
    if op_unit.i_d <= 0:
        raise InfeasibleError("device to size is off at the trip point")
    wl = op_fixed.i_d / op_unit.i_d
    return {"wl": wl, "i_balance": op_fixed.i_d,
            "regions": {"fixed": op_fixed.region, "unknown": op_unit.region}}


def load_resistor_bound(access: CellDevice, pulldown: CellDevice,
                        v_dd: float, v_q_max: float) -> dict:
    """Smallest load resistor keeping the read-disturbed node at or below
    v_q_max: the pulldown must sink the access current plus (V_DD - V_Q)/R_L,
    each device in the square-law region its bias puts it in."""
    from .device import square_law_current  # only two analyses here need device
    if not 0 < v_q_max < v_dd:
        raise InputError("need 0 < v_q_max < v_dd")
    i_access = square_law_current(access.k, v_dd - v_q_max - access.vt, v_dd - v_q_max)
    i_pulldown = square_law_current(pulldown.k, v_dd - pulldown.vt, v_q_max)
    if not (math.isfinite(i_access) and math.isfinite(i_pulldown)):
        raise DomainError(f"device currents {i_access:g} A (access) and {i_pulldown:g} A "
                          "(pull-down) are not finite")
    margin = i_pulldown - i_access
    if margin <= 0:
        raise InfeasibleError(
            "pulldown cannot sink the access current even with R_L = infinity")
    return {"r_min": (v_dd - v_q_max) / margin,
            "i_access": i_access, "i_pulldown": i_pulldown}


class BitlineGeometry(Record):
    """Lengths in one unit L: ``cell_height`` is the bitline run per cell,
    ``access_w`` the drain-contact width per cell. c_g, c_d and c_fr (per
    edge) are in F/L, the plate c_pp in F/L^2, r_sq in ohm/sq."""
    _fields = ("rows", "cell_height", "cell_width", "bl_width", "access_w", "c_g", "c_d",
               "c_pp", "c_fr", "r_sq", "fringe_edges")

    def __init__(self, rows, cell_height, cell_width, bl_width, access_w, c_g=0.0, c_d=0.0,
                 c_pp=0.0, c_fr=0.0, r_sq=0.0, fringe_edges=2):
        if rows < 0:
            raise InputError("rows must be >= 0")
        if rows and min(cell_height, bl_width) <= 0:
            raise InputError("bitline geometry must be positive")
        self.__dict__.update(rows=rows, cell_height=cell_height, cell_width=cell_width,
                             bl_width=bl_width, access_w=access_w, c_g=c_g, c_d=c_d,
                             c_pp=c_pp, c_fr=c_fr, r_sq=r_sq, fringe_edges=fringe_edges)


def bitline_model(geom: BitlineGeometry) -> dict:
    """Total bitline loading (access diffusion + plate + fringe), bitline
    resistance, and the distributed (pi-model) Elmore delay R*C/2."""
    if geom.rows == 0:
        return {"c_total": 0.0, "c_diffusion": 0.0, "c_wire": 0.0,
                "r_total": 0.0, "elmore_distributed": 0.0}
    length = geom.rows * geom.cell_height
    c_diff = geom.rows * geom.access_w * geom.c_d
    c_wire = length * geom.bl_width * geom.c_pp \
        + length * geom.c_fr * geom.fringe_edges
    r_total = geom.r_sq * length / geom.bl_width
    c_total = c_diff + c_wire
    out = {"c_total": c_total, "c_diffusion": c_diff, "c_wire": c_wire,
           "r_total": r_total, "elmore_distributed": r_total * c_total / 2.0}
    if not all(map(math.isfinite, out.values())):
        raise DomainError(f"bitline loading is not finite: {out}")
    return out


class ArrayPlan(Record):
    _fields = ("rows", "cols", "decode_levels", "mux_levels", "r_word", "c_word", "r_bit",
               "c_bit", "d_gate", "d_mux")

    def __init__(self, rows, cols, decode_levels, mux_levels=0, r_word=None, c_word=None,
                 r_bit=None, c_bit=None, d_gate=None, d_mux=None):
        if rows < 1 or cols < 1:
            raise InputError("array needs rows, cols >= 1")
        self.__dict__.update(rows=rows, cols=cols, decode_levels=decode_levels,
                             mux_levels=mux_levels, r_word=r_word, c_word=c_word,
                             r_bit=r_bit, c_bit=c_bit, d_gate=d_gate, d_mux=d_mux)


def blocked_read_delay(plan: ArrayPlan) -> dict:
    """Worst-case read delay as decode gates + 0.69 * distributed word/bit
    line terms + mux stages; numeric when the parasitics are supplied."""
    coef_word = 0.69 * plan.cols * (plan.cols + 1) / 2.0
    coef_bit = 0.69 * plan.rows * (plan.rows + 1) / 2.0
    out = {
        "d_gate_count": plan.decode_levels,
        "r_word_c_word_coeff": coef_word,
        "r_bit_c_bit_coeff": coef_bit,
        "d_mux_count": plan.mux_levels,
    }
    numeric = (plan.r_word, plan.c_word, plan.r_bit, plan.c_bit, plan.d_gate)
    if all(v is not None for v in numeric):
        total = plan.decode_levels * plan.d_gate \
            + coef_word * plan.r_word * plan.c_word \
            + coef_bit * plan.r_bit * plan.c_bit
        if plan.mux_levels:
            if plan.d_mux is None:
                raise InputError("mux stages present but d_mux missing")
            total += plan.mux_levels * plan.d_mux
        out["delay"] = total
    return out


def decoder_cost(stages) -> int:
    """Static-CMOS transistor count: 2k per k-input gate, 2 per inverter.

    ``stages`` is a list of {kind, fan_in, count} entries, ``fan_in`` only
    for nand and nor stages; cost is additive across stages.
    """
    total = 0
    for i, st in enumerate(stages):
        kind = st["kind"]
        count = int(st["count"])
        if count < 0:
            raise InputError("gate count must be >= 0")
        if kind == "inverter":
            total += 2 * count
        elif kind in ("nand", "nor"):
            if "fan_in" not in st:
                raise InputError(f"stage {i} ({kind}) needs a fan_in")
            fan_in = int(st["fan_in"])
            if fan_in < 1:
                raise InputError("fan_in must be >= 1")
            total += 2 * fan_in * count
        else:
            raise InputError(f"unknown gate kind {kind!r}")
    return total


class AddressMap(Record):
    """``order`` lists the fields from MSB to LSB, below 'unused'."""
    _fields = ("chips", "banks", "rows", "cols", "address_bits", "order")

    def __init__(self, chips, banks, rows, cols, address_bits=32,
                 order=("row", "bank", "col", "chip")):
        self.__dict__.update(chips=chips, banks=banks, rows=rows, cols=cols,
                             address_bits=address_bits, order=tuple(order))
        if sorted(self.order) != ["bank", "chip", "col", "row"]:
            raise InputError("order must permute row/bank/col/chip")
        for name in ("chips", "banks", "rows", "cols"):
            v = getattr(self, name)
            if v < 1 or v & (v - 1):
                raise InputError(f"{name} = {v} is not a power of two")
        if self.used_bits > self.address_bits:
            raise InputError("field widths exceed the address width")

    def width(self, fld):
        return {"chip": self.chips, "bank": self.banks,
                "row": self.rows, "col": self.cols}[fld].bit_length() - 1

    @property
    def used_bits(self):
        return sum(self.width(f) for f in self.order)


def address_decode(amap: AddressMap, address: int) -> dict:
    """Slice an address into contiguous MSB->LSB fields per the map order.

    Bit ranges are (high, low) positions; the unused field collects the
    bits above the mapped range and flags addresses beyond it.
    """
    if not 0 <= address < (1 << amap.address_bits):
        raise InputError(f"address {address:#x} exceeds {amap.address_bits} bits")
    fields, ranges = {}, {}
    hi = amap.used_bits - 1
    for fld in amap.order:
        w = amap.width(fld)
        lo = hi - w + 1
        fields[fld] = (address >> lo) & ((1 << w) - 1)
        ranges[fld] = (hi, lo)
        hi = lo - 1
    unused_w = amap.address_bits - amap.used_bits
    fields["unused"] = address >> amap.used_bits
    ranges["unused"] = (amap.address_bits - 1, amap.used_bits) if unused_w else None
    return {"fields": fields, "bit_ranges": ranges,
            "out_of_range": fields["unused"] != 0}


def address_encode(amap: AddressMap, fields: dict) -> int:
    """Inverse of address_decode (exact round trip)."""
    addr = fields.get("unused", 0) << amap.used_bits
    hi = amap.used_bits - 1
    for fld in amap.order:
        w = amap.width(fld)
        lo = hi - w + 1
        v = fields[fld]
        if not 0 <= v < (1 << w):
            raise InputError(f"{fld} value {v} does not fit {w} bits")
        addr |= v << lo
        hi = lo - 1
    return addr
