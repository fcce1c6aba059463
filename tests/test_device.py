import pytest

from vlsidesk import device
from vlsidesk.device import MosDevice, scale_factors
from vlsidesk.errors import DomainError, InputError, SolverError

from conftest import close


PMOS_BODY = MosDevice(polarity="pmos", k_prime=20e-6, vt0=-0.5, gamma=-0.25,
                      phi_f2=0.4, w=5, l=1)


def test_threshold_with_body_bias():
    # sqrt(0.4) is often rounded to 0.6, putting the coarse value at -0.6
    vt = device.threshold_voltage(PMOS_BODY, 0.6)
    assert abs(vt - (-0.592)) < 0.01


def test_threshold_zero_bias_is_vt0():
    assert device.threshold_voltage(PMOS_BODY, 0.0) == PMOS_BODY.vt0


def test_threshold_no_body_effect():
    dev = MosDevice(vt0=0.7, gamma=0.0, phi_f2=0.6)
    assert device.threshold_voltage(dev, 3.0) == 0.7


def test_threshold_negative_radicand():
    with pytest.raises(DomainError):
        device.threshold_voltage(PMOS_BODY, -1.0)


def test_pmos_linear_current():
    dev = MosDevice(polarity="pmos", k_prime=20e-6, vt0=-0.6, w=5, l=1)
    op = device.bias_point(dev, v_gs=1.2, v_ds=0.2)
    assert op.region == "linear"
    assert close(op.i_d, 10e-6)


def test_cutoff_has_zero_current():
    dev = MosDevice(k_prime=100e-6, vt0=0.5)
    op = device.bias_point(dev, v_gs=0.4, v_ds=1.0)
    assert op.region == "cutoff" and op.i_d == 0.0


def test_negative_v_ds_is_input_error():
    dev = MosDevice(k_prime=100e-6, vt0=0.5)
    with pytest.raises(InputError):
        device.bias_point(dev, v_gs=1.2, v_ds=-0.2)
    assert device.bias_point(dev, v_gs=1.2, v_ds=0.0).i_d == 0.0


def test_region_boundary_continuity(rng):
    for _ in range(50):
        dev = MosDevice(k_prime=rng.uniform(1e-5, 1e-3),
                        vt0=rng.uniform(0.2, 0.8),
                        w=rng.uniform(1, 20), l=1)
        v_gs = dev.vt0 + rng.uniform(0.1, 2.0)
        v_ds = v_gs - dev.vt0
        k = dev.k_prime * dev.wl_ratio
        i_lin = 0.5 * k * (2 * (v_gs - dev.vt0) * v_ds - v_ds**2)
        i_sat = 0.5 * k * (v_gs - dev.vt0) ** 2
        assert abs(i_lin - i_sat) < 1e-12 * i_sat
        assert device.bias_point(dev, v_gs, v_ds).i_d == pytest.approx(i_sat)


DEV_PASS_GATE = MosDevice(k_prime=1.0, w=10e-6, l=1.5e-6, l_d=0.25e-6,
                          t_ox=100e-10, n_d=1e21, n_a_sub=1e17, n_a_sw=1e19,
                          x_j=0.3e-6, y=5e-6)


def test_oxide_caps_saturation():
    rep = device.mos_capacitances(DEV_PASS_GATE, "saturation")
    assert close(rep.c_ox_total, 40.28e-15)
    assert close(rep.c_gd, 8.63e-15)
    assert close(rep.c_gs, 31.65e-15)
    assert rep.c_gb == 0.0


def test_drain_junction_at_2v():
    rep = device.mos_capacitances(DEV_PASS_GATE, "saturation", v_reverse=2.0)
    assert close(rep.c_junction_total, 57.98e-15)


def test_junction_caps_with_deeper_sidewall():
    # channel-stop sidewall junction runs deeper than the bottom junction
    dev = MosDevice(k_prime=1.0, w=8e-6, l=2e-6, l_d=0.35e-6, t_ox=50e-9,
                    n_d=1e20, n_a_sub=1e16, n_a_sw=1e19,
                    x_j=0.2e-6, x_j_sw=0.4e-6, y=5e-6, m_j=0.5, m_jsw=0.5)
    rep = device.mos_capacitances(dev, "saturation", v_reverse=2.5)
    assert close(rep.c_junction_total, 39.32e-15)
    assert close(rep.c_overlap, 1.93e-15)
    rep4 = device.mos_capacitances(dev, "saturation", v_reverse=4.0)
    assert close(rep4.c_junction_total, 33.02e-15)


def test_oxide_caps_with_explicit_cox():
    # c_ox in F/m^2; drawn length chosen so l_eff matches the quoted channel
    dev = MosDevice(k_prime=1.0, w=5e-6, l=12e-6, l_d=3e-6, c_ox=7e-4)
    rep = device.mos_capacitances(dev, "saturation")
    assert close(rep.c_gd, 10.5e-15)
    assert close(rep.c_gs, 24.5e-15)


def test_cap_region_split_sums():
    for region in ("cutoff", "linear", "saturation"):
        rep = device.mos_capacitances(DEV_PASS_GATE, region)
        assert rep.c_ox_total == pytest.approx(rep.c_gb + rep.c_gs + rep.c_gd)


def test_junction_monotone_in_reverse_bias(rng):
    prev = None
    for v in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]:
        c = device.mos_capacitances(DEV_PASS_GATE, "cutoff", v).c_junction_total
        if prev is not None:
            assert c < prev
        prev = c


def test_geometry_error():
    with pytest.raises(Exception):
        MosDevice(w=1, l=1, l_d=0.8)


def test_general_scaling_factors():
    sf = scale_factors("general", s=2, m=4)
    assert sf.factors["delay"] == pytest.approx(2 / 16)
    assert sf.factors["P"] == pytest.approx(0.5)
    assert sf.factors["I"] == pytest.approx(1.0)
    assert sf.factors["E"] == pytest.approx(1 / 16)
    assert sf.factors["power_density"] == pytest.approx(8.0)


def test_overflowing_scaling_factors_are_a_domain_error():
    with pytest.raises(DomainError, match="overflow"):
        scale_factors("general", s=1e300, m=4)


def test_junction_dopings_below_n_i_squared_are_a_domain_error():
    dev = MosDevice(w=1e-6, l=1e-6, c_ox=1e-3, n_d=1.5, n_a_sub=1e16, y=1e-6)
    with pytest.raises(DomainError, match="built-in potential"):
        device.mos_capacitances(dev, "cutoff")
    dev = MosDevice(w=1e-6, l=1e-6, c_ox=1e-3, n_d=1e308, n_a_sub=1e308, y=1e-6)
    with pytest.raises(DomainError, match="capacitances are not finite"):
        device.mos_capacitances(dev, "cutoff")


def test_constant_voltage_sheet_resistance():
    sf = scale_factors("constant_voltage", s=2)
    assert sf.factors["R_sheet"] == pytest.approx(0.5)
    assert scale_factors("constant_field", s=2).factors["R_sheet"] == 1.0


def test_identity_scaling():
    sf = scale_factors("general", s=1, m=1)
    assert all(v == 1.0 for v in sf.factors.values())


def test_general_equal_divisors_is_constant_field():
    for s in (1.5, 2.0, 3.0):
        gen = scale_factors("general", s=s, m=s)
        cf = scale_factors("constant_field", s=s)
        for k in device.QUANTITIES:
            assert gen.factors[k] == pytest.approx(cf.factors[k])


def test_scaling_composes(rng):
    for _ in range(20):
        s1, m1 = rng.uniform(1, 3), rng.uniform(1, 3)
        s2, m2 = rng.uniform(1, 3), rng.uniform(1, 3)
        combined = scale_factors("general", s=s1, m=m1).compose(
            scale_factors("general", s=s2, m=m2))
        direct = scale_factors("general", s=s1 * s2, m=m1 * m2)
        for k in device.QUANTITIES:
            assert combined.factors[k] == pytest.approx(direct.factors[k])


DEPLETION = dict(k_driver=25e-6 * 4, vt_driver=0.4, k_load=25e-6 * 1,
                 vt_load=-0.3)


def test_depletion_load_vtc():
    res = device.inverter_vtc("depletion_load", 1.8, **DEPLETION)
    assert res.v_oh == pytest.approx(1.8, abs=1e-6)
    assert res.v_ol == pytest.approx(0.008, abs=5e-4)
    assert res.v_il == pytest.approx(0.467, abs=0.005)
    assert res.v_ih == pytest.approx(0.573, abs=0.005)


def test_symmetric_cmos_switch_point():
    res = device.inverter_vtc("cmos", 2.0, k_n=100e-6, vt_n=0.4,
                              k_p=100e-6, vt_p=0.4)
    assert res.v_m == pytest.approx(1.0, abs=1e-6)


def test_vtc_ordering_holds(rng):
    for _ in range(10):
        vdd = rng.uniform(1.2, 3.0)
        res = device.inverter_vtc(
            "cmos", vdd,
            k_n=rng.uniform(20e-6, 400e-6), vt_n=rng.uniform(0.1, 0.3) * vdd,
            k_p=rng.uniform(20e-6, 400e-6), vt_p=rng.uniform(0.1, 0.3) * vdd)
        assert res.v_ol <= res.v_il < res.v_ih <= res.v_oh


def _vtc_sweep_oracle(config, v_dd, n=20000, **params):
    """Dense transfer-curve sweep; unity-slope points by sign change of the
    finite-difference slope against -1."""
    solver = device._Vtc(config, v_dd, **params)
    step = v_dd / n
    vs = [i * step for i in range(n + 1)]
    outs = [solver.v_out(v) for v in vs]
    crossings = []
    for i in range(n):
        s = (outs[i + 1] - outs[i]) / step
        if s <= -1.0:
            crossings.append(0.5 * (vs[i] + vs[i + 1]))
    return min(crossings), max(crossings)


def test_resistive_load_matches_sweep_oracle():
    params = dict(k_p=60e-6, vt_p=0.5, r_load=20e3)
    res = device.inverter_vtc("resistive_load", 2.5, **params)
    il, ih = _vtc_sweep_oracle("resistive_load", 2.5, **params)
    assert abs(res.v_il - il) < 1e-3
    assert abs(res.v_ih - ih) < 1e-3


# Transfer points and regions of each configuration, recorded from the
# per-configuration solver the element table replaced.
CROSSING = {"at_v_il": {"pull_up": "linear", "pull_down": "saturation"},
            "at_v_ih": {"pull_up": "saturation", "pull_down": "linear"}}
VTC_PINNED = {
    "cmos": (2.0, dict(k_n=100e-6, vt_n=0.4, k_p=100e-6, vt_p=0.4),
             dict(v_ol=0.0, v_oh=2.0, v_il=0.850000000002062, v_ih=1.1499999999175499,
                  v_m=1.0, nm_l=0.850000000002062, nm_h=0.8500000000824501),
             CROSSING),
    "depletion_load": (1.8, DEPLETION,
                       dict(v_ol=0.008058909292494518, v_oh=1.8, v_il=0.4670820393132047,
                            v_ih=0.5732050807606963, v_m=0.55, nm_l=0.45902313002071016,
                            nm_h=1.2267949192393037),
                       CROSSING),
    "pseudo_nmos": (1.8, dict(k_n=200e-6, vt_n=0.4, k_p=40e-6, vt_p=0.4),
                    dict(v_ol=0.14780193260011776, v_oh=1.8, v_il=0.6556038600081355,
                         v_ih=1.122956891334057, v_m=0.9715476066494082,
                         nm_l=0.5078019274080178, nm_h=0.677043108665943),
                    CROSSING),
    "resistive_load": (2.5, dict(k_p=60e-6, vt_p=0.5, r_load=20e3),
                       dict(v_ol=0.0, v_oh=1.6316376870919327, v_il=0.47631072908523464,
                            v_ih=1.1666666667163361, v_m=0.8264009035346174,
                            nm_l=0.47631072908523464, nm_h=0.46497102037559657),
                       {"at_v_il": {"pull_up": "linear", "pull_down": "resistor"},
                        "at_v_ih": {"pull_up": "saturation", "pull_down": "resistor"}}),
}


@pytest.mark.parametrize("config", sorted(VTC_PINNED))
def test_vtc_pinned_values_and_regions(config):
    v_dd, params, want, regions = VTC_PINNED[config]
    res = device.inverter_vtc(config, v_dd, **params)
    for name, value in want.items():
        assert getattr(res, name) == pytest.approx(value, rel=1e-12, abs=0.0), name
    assert res.regions == regions


@pytest.mark.parametrize("config,key", [
    ("cmos", "k_p"), ("cmos", "k_n"), ("depletion_load", "k_load"),
    ("depletion_load", "k_driver"), ("pseudo_nmos", "k_p"), ("pseudo_nmos", "k_n"),
    ("resistive_load", "k_p"), ("resistive_load", "r_load")])
def test_vtc_element_scale_must_be_positive(config, key):
    v_dd, params, _, _ = VTC_PINNED[config]
    with pytest.raises(InputError, match=key):
        device.inverter_vtc(config, v_dd, **dict(params, **{key: 0.0}))


@pytest.mark.parametrize("config", sorted(VTC_PINNED))
def test_vtc_rejects_parameters_its_elements_do_not_read(config):
    v_dd, params, _, _ = VTC_PINNED[config]
    keys = {k for pair in device.INVERTER_ELEMENTS.values() for e in pair for k in e.keys()}
    stray = sorted(keys - set(params))
    with pytest.raises(InputError) as e:
        device.inverter_vtc(config, v_dd, **params, **dict.fromkeys(stray, 1.0))
    assert all(repr(k) in str(e.value) for k in stray)
    assert not any(repr(k) in str(e.value) for k in params)


def test_vtc_unknown_config():
    with pytest.raises(InputError):
        device.inverter_vtc("ttl", 5.0)


def test_pseudo_nmos_low_level():
    # closed form: strong nmos linear against the saturated grounded-gate
    # pmos gives v_ol from v^2 - 2.8 v + 0.392 = 0
    res = device.inverter_vtc("pseudo_nmos", 1.8, k_n=200e-6, vt_n=0.4,
                              k_p=40e-6, vt_p=0.4)
    want = (2.8 - (2.8**2 - 4 * 0.392) ** 0.5) / 2
    assert res.v_ol == pytest.approx(want, abs=1e-6)
    assert res.v_oh == pytest.approx(1.8, abs=1e-9)


def test_vtc_degenerate_curve_is_solver_error():
    # feeble driver against a strong always-on load: the output barely
    # droops, the slope never reaches -1
    with pytest.raises(SolverError):
        device.inverter_vtc("pseudo_nmos", 1.0, k_n=1e-12, vt_n=0.3,
                            k_p=1e-4, vt_p=0.2)


def test_noise_margins_two_stages():
    a1 = {"v_ol": 0.1, "v_oh": 1.8, "v_il": 0.35, "v_ih": 1.5}
    a2 = {"v_ol": 0.2, "v_oh": 2.0, "v_il": 0.3, "v_ih": 1.6}
    a3 = {"v_ol": 0.1, "v_oh": 1.9, "v_il": 0.6, "v_ih": 1.4}
    node_a = device.noise_margins(a1, a2)
    assert node_a["nm_l"] == pytest.approx(0.2)
    assert node_a["nm_h"] == pytest.approx(0.2)
    node_b = device.noise_margins(a2, a3)
    assert node_b["nm_l"] == pytest.approx(0.4)
    assert node_b["nm_h"] == pytest.approx(0.6)


def test_noise_margins_ideal_rails():
    drv = {"v_ol": 0.0, "v_oh": 1.8, "v_il": 0.7, "v_ih": 1.1}
    nm = device.noise_margins(drv, drv)
    assert nm["nm_l"] == pytest.approx(0.7)
    assert nm["nm_h"] == pytest.approx(0.7)
