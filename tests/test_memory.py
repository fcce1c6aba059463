import math

import pytest

from vlsidesk.device import MosDevice, bias_point
from vlsidesk.errors import DomainError, InfeasibleError, InputError
from vlsidesk.memory import (
    AddressMap,
    ArrayPlan,
    BitlineGeometry,
    CellDevice,
    SramCell,
    access_sizing,
    address_decode,
    address_encode,
    bitline_model,
    blocked_read_delay,
    cell_node_voltage,
    decoder_cost,
    load_resistor_bound,
)

CELL_2V = SramCell(access=CellDevice(k_prime=60e-6, wl=2.0, vt=0.5),
                   pulldown=CellDevice(k_prime=60e-6, wl=4.0, vt=0.5),
                   pullup=CellDevice(k_prime=30e-6, wl=1.5, vt=0.5),
                   v_dd=2.0)


def test_read_disturb_voltage():
    res = cell_node_voltage(CELL_2V, "read_disturb")
    assert res["v_node"] == pytest.approx(0.275, abs=0.001)
    assert res["discarded_root"] == pytest.approx(2.72, abs=0.01)


def test_write_voltage():
    res = cell_node_voltage(CELL_2V, "write")
    assert res["v_node"] == pytest.approx(0.314, abs=0.001)


def test_write_zero_voltage():
    cell = SramCell(access=CellDevice(k_prime=30e-3, wl=2.0, vt=0.4),
                    pulldown=CellDevice(k_prime=30e-3, wl=4.0, vt=0.4),
                    pullup=CellDevice(k_prime=15e-3, wl=4 / 3, vt=0.4),
                    v_dd=1.8)
    res = cell_node_voltage(cell, "write")
    # smaller root of 3 v^2 - 8.4 v + 1.96 = 0
    want = (8.4 - math.sqrt(8.4**2 - 4 * 3 * 1.96)) / 6
    assert res["v_node"] == pytest.approx(want, rel=1e-9)
    assert res["v_node"] == pytest.approx(0.2569, abs=5e-4)


def test_read_with_precharged_bitline():
    cell = SramCell(access=CellDevice(k_prime=1.0, wl=1.0, vt=0.3),
                    pulldown=CellDevice(k_prime=1.0, wl=1.0, vt=0.3),
                    v_dd=1.0, v_bitline=0.7)
    res = cell_node_voltage(cell, "read_disturb")
    assert res["v_node"] == pytest.approx(0.205, abs=5e-4)


def test_read_disturb_monotone_in_pulldown_strength(rng):
    prev = None
    for wl in (8.0, 6.0, 4.0, 3.0, 2.5):
        cell = SramCell(access=CellDevice(k_prime=60e-6, wl=2.0, vt=0.5),
                        pulldown=CellDevice(k_prime=60e-6, wl=wl, vt=0.5),
                        v_dd=2.0)
        v = cell_node_voltage(cell, "read_disturb")["v_node"]
        if prev is not None:
            assert v > prev  # weaker pulldown disturbs more
        prev = v


def test_quadratic_roots_verified(rng):
    for _ in range(30):
        cell = SramCell(
            access=CellDevice(k_prime=rng.uniform(2e-5, 2e-4),
                              wl=rng.uniform(0.5, 3.0), vt=0.4),
            pulldown=CellDevice(k_prime=rng.uniform(2e-5, 2e-4),
                                wl=rng.uniform(1.0, 8.0), vt=0.4),
            v_dd=1.8)
        res = cell_node_voltage(cell, "read_disturb")
        v = res["v_node"]
        i_acc = 0.5 * cell.access.k * (1.8 - 0.4 - v) ** 2
        i_pd = 0.5 * cell.pulldown.k * (2 * (1.8 - 0.4) * v - v * v)
        assert i_acc == pytest.approx(i_pd, rel=1e-9)
        assert 0 <= v <= 1.8 - 0.4


def test_access_sizing_with_body_effect():
    fixed = MosDevice(polarity="nmos", k_prime=20e-6, vt0=0.7, gamma=0.4,
                      phi_f2=0.6, w=2, l=4)
    unknown = MosDevice(polarity="pmos", k_prime=10e-6, vt0=-0.7)
    res = access_sizing(fixed, (4.5, 0.2, 0.5), unknown, (5.0, 4.3, 0.0))
    assert res["wl"] == pytest.approx(0.078, abs=0.001)
    assert res["regions"] == {"fixed": "linear", "unknown": "saturation"}


def test_access_sizing_plug_back(rng):
    fixed = MosDevice(k_prime=50e-6, vt0=0.5, w=3, l=2)
    unknown = MosDevice(polarity="pmos", k_prime=25e-6, vt0=-0.5)
    bias_f, bias_u = (1.8, 0.3, 0.0), (2.5, 2.2, 0.0)
    res = access_sizing(fixed, bias_f, unknown, bias_u)
    sized = MosDevice(polarity="pmos", k_prime=25e-6, vt0=-0.5,
                      w=res["wl"], l=1.0)
    i_fixed = bias_point(fixed, *bias_f).i_d
    i_sized = bias_point(sized, *bias_u).i_d
    assert i_sized == pytest.approx(i_fixed, rel=1e-9)


def test_access_sizing_infeasible_zero_drive():
    fixed = MosDevice(k_prime=50e-6, vt0=0.5, w=3, l=2)
    unknown = MosDevice(polarity="pmos", k_prime=25e-6, vt0=-0.5)
    with pytest.raises(InfeasibleError):
        access_sizing(fixed, (0.2, 0.1, 0.0), unknown, (2.5, 2.2, 0.0))


def test_load_resistor_bound():
    res = load_resistor_bound(CellDevice(k_prime=50e-6, wl=1.5, vt=0.5),
                              CellDevice(k_prime=50e-6, wl=3.0, vt=0.5),
                              v_dd=2.5, v_q_max=0.5)
    assert res["r_min"] == pytest.approx(42.67e3, rel=1e-3)
    # plug back: access + resistor current equals pulldown current
    i_rl = (2.5 - 0.5) / res["r_min"]
    assert res["i_access"] + i_rl == pytest.approx(res["i_pulldown"], rel=1e-9)


def test_load_resistor_infeasible():
    with pytest.raises(InfeasibleError):
        load_resistor_bound(CellDevice(k_prime=50e-6, wl=3.0, vt=0.5),
                            CellDevice(k_prime=50e-6, wl=0.01, vt=0.5),
                            v_dd=2.5, v_q_max=0.5)


def test_load_resistor_bound_with_the_access_device_off():
    # v_dd - v_q_max < vt: the access device carries nothing, and the
    # pulldown (overdrive 0.3 V, v_ds = v_q_max) is saturated
    access, pulldown = CellDevice(1e-4, 1, 0.7), CellDevice(1e-4, 2, 0.7)
    for v_q_max in (0.4, 0.6):
        res = load_resistor_bound(access, pulldown, v_dd=1.0, v_q_max=v_q_max)
        assert res["i_access"] == 0.0
        assert res["i_pulldown"] == pytest.approx(0.5 * 2e-4 * 0.3**2, rel=1e-12)
        assert res["r_min"] == pytest.approx((1.0 - v_q_max) / 9e-6, rel=1e-12)


@pytest.mark.parametrize("mode,device,field,value", [
    ("read_disturb", "access", "vt", 1e308), ("read_disturb", "access", "k_prime", 1e308),
    ("write", "pullup", "vt", 1e308), ("write", "access", "k_prime", 1e308),
    ("write", "access", "wl", 1e-320)])
def test_cell_kcl_overflow_or_underflow_is_a_domain_error(mode, device, field, value):
    devices = {k: getattr(CELL_2V, k) for k in ("access", "pulldown", "pullup")}
    devices[device] = CellDevice(**{**vars(devices[device]), field: value})
    with pytest.raises(DomainError, match="overflow"):
        cell_node_voltage(SramCell(**devices, v_dd=2.0), mode)


def test_load_resistor_bound_with_an_overflowing_current_is_a_domain_error():
    # k = k_prime * wl overflows to inf
    with pytest.raises(DomainError, match="not finite"):
        load_resistor_bound(CellDevice(1e-4, 1, 0.7), CellDevice(1e308, 2, 0.7),
                            v_dd=1.0, v_q_max=0.4)


GEOM_256 = BitlineGeometry(rows=256, cell_height=1.5, cell_width=2.0,
                           bl_width=0.2, access_w=0.25, c_d=1e-15,
                           c_pp=0.1e-15, c_fr=0.05e-15, r_sq=0.1)


def test_bitline_model_256_rows():
    res = bitline_model(GEOM_256)
    assert res["c_total"] == pytest.approx(110.08e-15, rel=1e-3)
    assert res["r_total"] == pytest.approx(192.0)
    assert res["elmore_distributed"] == pytest.approx(10.57e-12, abs=0.05e-12)
    assert res["elmore_distributed"] == pytest.approx(
        res["r_total"] * res["c_total"] / 2)


def test_bitline_zero_rows():
    geom = BitlineGeometry(rows=0, cell_height=1.0, cell_width=1.0,
                           bl_width=0.2, access_w=0.25)
    res = bitline_model(geom)
    assert res["c_total"] == 0.0 and res["r_total"] == 0.0


def test_bitline_overflow_is_a_domain_error():
    # the wire length overflows to inf, and inf * c_pp = 0 * inf is nan
    geom = BitlineGeometry(rows=int(1e308), cell_height=1e300, cell_width=0.0,
                           bl_width=1.0, access_w=1.0)
    with pytest.raises(DomainError, match="not finite"):
        bitline_model(geom)


def test_bitline_scaling_law():
    doubled = BitlineGeometry(rows=512, cell_height=1.5, cell_width=2.0,
                              bl_width=0.2, access_w=0.25, c_d=1e-15,
                              c_pp=0.1e-15, c_fr=0.05e-15, r_sq=0.1)
    a, b = bitline_model(GEOM_256), bitline_model(doubled)
    assert b["c_total"] == pytest.approx(2 * a["c_total"])
    assert b["r_total"] == pytest.approx(2 * a["r_total"])
    assert b["elmore_distributed"] == pytest.approx(4 * a["elmore_distributed"])


def test_blocked_read_delay_coefficients():
    res = blocked_read_delay(ArrayPlan(rows=64, cols=16, decode_levels=4))
    assert res["r_word_c_word_coeff"] == pytest.approx(93.84)
    assert res["r_bit_c_bit_coeff"] == pytest.approx(1435.2)
    res32 = blocked_read_delay(ArrayPlan(rows=32, cols=32, decode_levels=4,
                                         mux_levels=1))
    assert res32["r_word_c_word_coeff"] == pytest.approx(364.32)
    assert res32["r_bit_c_bit_coeff"] == pytest.approx(364.32)
    tiny = blocked_read_delay(ArrayPlan(rows=1, cols=1, decode_levels=2))
    assert tiny["r_word_c_word_coeff"] == pytest.approx(0.69)
    assert tiny["r_bit_c_bit_coeff"] == pytest.approx(0.69)


def test_blocked_read_delay_numeric():
    plan = ArrayPlan(rows=2, cols=2, decode_levels=1, mux_levels=1,
                     r_word=1.0, c_word=1.0, r_bit=2.0, c_bit=1.0,
                     d_gate=10.0, d_mux=5.0)
    res = blocked_read_delay(plan)
    assert res["delay"] == pytest.approx(10 + 0.69 * 3 * 1 + 0.69 * 3 * 2 + 5)


BASIC_DECODER = [
    {"kind": "inverter", "count": 10},
    {"kind": "nand", "fan_in": 3, "count": 3 * 1024},
    {"kind": "nor", "fan_in": 3, "count": 3 * 1024},
    {"kind": "nand", "fan_in": 2, "count": 2 * 1024},
    {"kind": "inverter", "count": 1024},
]

PREDECODED = [
    {"kind": "nand", "fan_in": 2, "count": 20},
    {"kind": "nor", "fan_in": 3, "count": 1024},
    {"kind": "nor", "fan_in": 2, "count": 1024},
    {"kind": "nand", "fan_in": 2, "count": 1024},
    {"kind": "inverter", "count": 1024},
]


def test_decoder_costs():
    assert decoder_cost(BASIC_DECODER) == 47124
    assert decoder_cost(PREDECODED) == 16464
    # computed saving; the hand text prints a different (wrong) difference
    assert decoder_cost(BASIC_DECODER) - decoder_cost(PREDECODED) == 30660
    assert decoder_cost([]) == 0


@pytest.mark.parametrize("kind", ["nand", "nor"])
def test_decoder_gate_stage_without_fan_in_names_the_stage(kind):
    stages = [{"kind": "inverter", "count": 1}, {"kind": kind, "count": 2}]
    with pytest.raises(InputError, match=rf"^stage 1 \({kind}\) needs a fan_in$"):
        decoder_cost(stages)


def test_decoder_cost_additive(rng):
    a = [{"kind": "nand", "fan_in": 3, "count": 7}]
    b = [{"kind": "inverter", "count": 5}]
    assert decoder_cost(a + b) == decoder_cost(a) + decoder_cost(b)


MAP_512M = AddressMap(chips=8, banks=4, rows=16 * 1024, cols=1024)


def test_address_decode_example():
    res = address_decode(MAP_512M, 0x004F1AD8)
    f = res["fields"]
    assert f["unused"] == 0
    assert f["row"] == 0b00000010011110
    assert f["bank"] == 0b00
    assert f["col"] == 0b1101011011
    assert f["chip"] == 0b000
    assert res["bit_ranges"]["row"] == (28, 15)
    assert res["bit_ranges"]["chip"] == (2, 0)


def test_address_zero():
    res = address_decode(MAP_512M, 0)
    assert all(v == 0 for v in res["fields"].values())


def test_address_round_trip(rng):
    for _ in range(100_000):
        a = rng.getrandbits(32)
        res = address_decode(MAP_512M, a)
        assert address_encode(MAP_512M, res["fields"]) == a


def test_address_out_of_range_flag():
    res = address_decode(MAP_512M, 1 << 31)
    assert res["out_of_range"]


def test_address_map_validation():
    with pytest.raises(InputError):
        AddressMap(chips=3, banks=4, rows=16, cols=16)
