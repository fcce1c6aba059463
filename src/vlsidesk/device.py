"""Long-channel (square-law) MOSFET model and inverter transfer curves.

Conventions:
  * SI units at the API: volts, amps, farads, meters. Dopings in cm^-3,
    permittivities in F/cm (junction math runs in cm internally).
  * pMOS devices carry signed vt0/gamma; callers supply source-referenced
    magnitudes (V_SG, V_SD, body-bias magnitude) for bias calculations.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError, GeometryError, InputError, SolverError

EPS0 = 8.85e-14  # F/cm


@dataclass(frozen=True)
class PhysicalConstants:
    n_i: float = 1.45e10        # cm^-3
    eps_si: float = 11.7 * EPS0  # F/cm
    eps_ox: float = 3.9 * EPS0   # F/cm
    kt_over_q: float = 0.026     # V
    q: float = 1.6e-19           # C

    def __post_init__(self):
        for name in ("n_i", "eps_si", "eps_ox", "kt_over_q", "q"):
            if getattr(self, name) <= 0:
                raise InputError(f"constant {name} must be positive")


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class MosDevice:
    """Process and geometry parameters of one transistor.

    ``w``/``l`` may be given directly as a ratio (l=1, l_d=0) when only
    W/L matters. ``x_j_sw`` is the sidewall junction depth and defaults
    to ``x_j``; some processes quote a deeper channel-stop sidewall.
    """

    polarity: str = "nmos"
    k_prime: float = 1e-4        # A/V^2
    vt0: float = 0.5             # V, signed
    gamma: float = 0.0           # V^0.5, signed
    phi_f2: float = 0.6          # |2*phi_F|, V
    lambda_: float = 0.0         # 1/V
    w: float = 1.0
    l: float = 1.0
    l_d: float = 0.0
    t_ox: float = 0.0            # m; 0 if c_ox given directly
    c_ox: float = 0.0            # F/m^2 override; 0 to derive from t_ox
    n_d: float = 0.0             # cm^-3 (drain)
    n_a_sub: float = 0.0         # cm^-3 (substrate)
    n_a_sw: float = 0.0          # cm^-3 (channel stop)
    x_j: float = 0.0             # m
    x_j_sw: float = 0.0          # m; defaults to x_j
    y: float = 0.0               # m, drain diffusion extent
    m_j: float = 0.5
    m_jsw: float = 0.5

    def __post_init__(self):
        if self.polarity not in ("nmos", "pmos"):
            raise InputError(f"polarity must be nmos or pmos, not {self.polarity!r}")
        if self.w <= 0 or self.l <= 0:
            raise GeometryError("w and l must be positive")
        if self.l - 2 * self.l_d < 0:
            raise GeometryError("effective length l - 2*l_d is negative")
        if self.k_prime <= 0:
            raise InputError("k_prime must be positive")
        for m in (self.m_j, self.m_jsw):
            if not 0 < m <= 1:
                raise InputError("grading coefficients must be in (0, 1]")
        if self.x_j_sw == 0.0:
            object.__setattr__(self, "x_j_sw", self.x_j)

    @property
    def l_eff(self):
        return self.l - 2 * self.l_d

    @property
    def wl_ratio(self):
        return self.w / self.l_eff

    def cox_per_m2(self, consts=CONSTANTS):
        if self.c_ox:
            return self.c_ox
        if self.t_ox <= 0:
            raise GeometryError("need t_ox or c_ox for oxide capacitance")
        return consts.eps_ox / (self.t_ox * 1e2) * 1e4  # F/cm^2 -> F/m^2


@dataclass(frozen=True)
class OperatingPoint:
    region: str
    i_d: float
    v_t: float
    v_gs: float
    v_ds: float
    v_sb: float


@dataclass(frozen=True)
class CapReport:
    c_gb: float
    c_gs: float
    c_gd: float
    c_ox_total: float
    c_overlap: float
    c_bottom: float
    c_sidewall: float
    c_junction_total: float


def threshold_voltage(dev: MosDevice, v_sb: float) -> float:
    """Body-effect threshold: vt0 + gamma*(sqrt(|2phiF|+v_sb) - sqrt(|2phiF|))."""
    radicand = dev.phi_f2 + v_sb
    if radicand < 0:
        raise DomainError(f"|2phi_F| + v_sb = {radicand:.4g} is negative")
    return dev.vt0 + dev.gamma * (math.sqrt(radicand) - math.sqrt(dev.phi_f2))


def square_law_current(k: float, v_ov: float, v_ds: float, lambda_: float = 0.0) -> float:
    """Drain current of a square-law device with transconductance k = k'*W/L."""
    if v_ov <= 0 or v_ds <= 0:
        return 0.0
    if v_ds < v_ov:
        return 0.5 * k * (2.0 * v_ov * v_ds - v_ds * v_ds)
    return 0.5 * k * v_ov * v_ov * (1.0 + lambda_ * v_ds)


def bias_point(dev: MosDevice, v_gs: float, v_ds: float, v_sb: float = 0.0) -> OperatingPoint:
    """Classify the operating region and evaluate the drain current.

    For pMOS pass source-referenced magnitudes (V_SG, V_SD, |V_BS|); the
    effective threshold is reported signed.
    """
    for name, v in (("v_gs", v_gs), ("v_ds", v_ds), ("v_sb", v_sb)):
        if not math.isfinite(v):
            raise InputError(f"{name} is not finite")
    v_t = threshold_voltage(dev, v_sb)
    v_ov = v_gs - abs(v_t)
    k = dev.k_prime * dev.wl_ratio
    if v_ov <= 0:
        region, i_d = "cutoff", 0.0
    elif v_ds < v_ov:
        region = "linear"
        i_d = 0.5 * k * (2.0 * v_ov * v_ds - v_ds * v_ds)
    else:
        region = "saturation"
        i_d = 0.5 * k * v_ov * v_ov * (1.0 + dev.lambda_ * v_ds)
    return OperatingPoint(region, i_d, v_t, v_gs, v_ds, v_sb)


def _junction_caps(dev: MosDevice, v_reverse: float, consts: PhysicalConstants):
    # cm-based: abrupt-junction builtin potential and zero-bias cap density
    if not (dev.n_d and dev.n_a_sub and dev.w and dev.y):
        return 0.0, 0.0
    w, y = dev.w * 1e2, dev.y * 1e2
    x_j, x_j_sw = dev.x_j * 1e2, dev.x_j_sw * 1e2

    def c_area(n_a, phi_exp):
        phi = consts.kt_over_q * math.log(n_a * dev.n_d / consts.n_i**2)
        cj0 = math.sqrt(consts.eps_si * consts.q / 2.0
                        * (n_a * dev.n_d / (n_a + dev.n_d)) / phi)
        return cj0 / (1.0 + v_reverse / phi) ** phi_exp

    c_bottom = w * (y + x_j) * c_area(dev.n_a_sub, dev.m_j)
    c_sidewall = 0.0
    if dev.n_a_sw and x_j_sw:
        c_sidewall = (2.0 * y + w) * x_j_sw * c_area(dev.n_a_sw, dev.m_jsw)
    return c_bottom, c_sidewall


def mos_capacitances(dev: MosDevice, region: str, v_reverse: float = 0.0,
                     consts: PhysicalConstants = CONSTANTS) -> CapReport:
    """Region-split oxide capacitances plus reverse-biased drain junction.

    Oxide split: cutoff puts the channel cap on C_gb, linear halves it
    between C_gs/C_gd, saturation puts 2/3 on C_gs; gate-drain/source
    overlap (W*L_D) always adds to C_gs and C_gd. Junction terms need the
    doping/geometry fields and are zero when those are absent.
    """
    if region not in ("cutoff", "linear", "saturation"):
        raise InputError(f"unknown region {region!r}")
    if v_reverse < 0:
        raise InputError("v_reverse is a reverse-bias magnitude, must be >= 0")
    if dev.l_eff < 0:
        raise GeometryError("negative effective channel length")
    cox = dev.cox_per_m2(consts)
    c_channel = cox * dev.w * dev.l_eff
    c_ov = cox * dev.w * dev.l_d
    if region == "cutoff":
        c_gb, c_gs, c_gd = c_channel, c_ov, c_ov
    elif region == "linear":
        c_gb, c_gs, c_gd = 0.0, 0.5 * c_channel + c_ov, 0.5 * c_channel + c_ov
    else:
        c_gb, c_gs, c_gd = 0.0, (2.0 / 3.0) * c_channel + c_ov, c_ov
    c_bottom, c_sidewall = _junction_caps(dev, v_reverse, consts)
    return CapReport(
        c_gb=c_gb, c_gs=c_gs, c_gd=c_gd, c_ox_total=c_gb + c_gs + c_gd,
        c_overlap=c_ov, c_bottom=c_bottom, c_sidewall=c_sidewall,
        c_junction_total=c_bottom + c_sidewall,
    )


QUANTITIES = ("V", "I", "C", "R", "R_sheet", "delay", "P", "E", "power_density")


@dataclass(frozen=True)
class ScalingFactors:
    mode: str
    s: float
    m: float
    factors: dict = field(default_factory=dict)

    def compose(self, other: "ScalingFactors") -> "ScalingFactors":
        return scale_factors("general", s=self.s * other.s, m=self.m * other.m)


def scale_factors(mode: str, s: float = 1.0, m: float = None) -> ScalingFactors:
    """Technology-scaling multipliers.

    ``general`` divides voltages by ``s`` and dimensions by ``m``;
    ``constant_field`` is general(s, s) and ``constant_voltage`` is
    general(1, s) (dimensions shrink, supply fixed).
    """
    if mode == "general":
        if m is None:
            raise InputError("general scaling needs both s and m")
        sv, sd = s, m
    elif mode == "constant_field":
        sv, sd = s, s
    elif mode == "constant_voltage":
        sv, sd = 1.0, s
    else:
        raise InputError(f"unknown scaling mode {mode!r}")
    if s < 1 or sd < 1:
        raise InputError("scaling divisors must be >= 1")
    factors = {
        "V": 1.0 / sv,
        "I": sd / sv**2,
        "C": 1.0 / sd,
        "R": sv / sd,
        "R_sheet": sv / sd,
        "delay": sv / sd**2,
        "P": sd / sv**3,
        "E": 1.0 / (sd * sv**2),
        "power_density": sd**3 / sv**3,
    }
    return ScalingFactors(mode=mode, s=sv, m=sd, factors=factors)


@dataclass(frozen=True)
class VtcResult:
    v_ol: float
    v_oh: float
    v_il: float
    v_ih: float
    v_m: float
    nm_l: float
    nm_h: float
    config: str = ""
    regions: dict = field(default_factory=dict)


class _Vtc:
    """DC transfer curve of a ratioed or complementary inverter.

    The pull-up and pull-down elements are current sources I(v_in, v_out);
    for every input the output solves I_up = I_down by bisection (the
    difference is monotone in v_out), then the unity-slope points are
    refined from a dense scan. Region assumptions are classified after
    the fact rather than assumed up front.
    """

    def __init__(self, config, v_dd, **p):
        self.config = config
        self.v_dd = float(v_dd)
        if self.v_dd <= 0:
            raise InputError("v_dd must be positive")
        self.p = p
        need = {
            "cmos": ("k_n", "vt_n", "k_p", "vt_p"),
            "depletion_load": ("k_driver", "vt_driver", "k_load", "vt_load"),
            "pseudo_nmos": ("k_n", "vt_n", "k_p", "vt_p"),
            "resistive_load": ("k_p", "vt_p", "r_load"),
        }
        if config not in need:
            raise InputError(f"unknown inverter config {config!r}")
        missing = [k for k in need[config] if k not in p]
        if missing:
            raise InputError(f"{config} needs parameters {missing}")

    # pull currents; thresholds for pmos/depletion devices are given as
    # the values that appear in |V_GS| - |V_t| style overdrives
    def i_up(self, vin, vout):
        p, vdd = self.p, self.v_dd
        if self.config == "cmos":
            return square_law_current(p["k_p"], (vdd - vin) - abs(p["vt_p"]), vdd - vout)
        if self.config == "depletion_load":
            return square_law_current(p["k_load"], -p["vt_load"], vdd - vout)
        if self.config == "pseudo_nmos":
            return square_law_current(p["k_p"], vdd - abs(p["vt_p"]), vdd - vout)
        return square_law_current(p["k_p"], (vdd - vin) - abs(p["vt_p"]), vdd - vout)

    def i_down(self, vin, vout):
        p = self.p
        if self.config == "resistive_load":
            return vout / p["r_load"]
        if self.config == "depletion_load":
            return square_law_current(p["k_driver"], vin - p["vt_driver"], vout)
        return square_law_current(p["k_n"], vin - p["vt_n"], vout)

    def v_out(self, vin):
        lo, hi = 0.0, self.v_dd
        f_lo = self.i_up(vin, lo) - self.i_down(vin, lo)
        f_hi = self.i_up(vin, hi) - self.i_down(vin, hi)
        if f_lo <= 0:
            return 0.0
        if f_hi >= 0:
            return self.v_dd
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.i_up(vin, mid) - self.i_down(vin, mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def slope(self, vin):
        h = self.v_dd * 1e-7
        return (self.v_out(vin + h) - self.v_out(vin - h)) / (2.0 * h)

    def unity_gain_points(self, n_grid=2000):
        vdd = self.v_dd
        grid = [vdd * i / n_grid for i in range(n_grid + 1)]
        g = [self.slope(v) + 1.0 for v in grid]
        crossings = []
        for i in range(n_grid):
            if g[i] == 0.0:
                crossings.append(grid[i])
            elif g[i] * g[i + 1] < 0:
                lo, hi = grid[i], grid[i + 1]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if (self.slope(mid) + 1.0) * (g[i]) > 0:
                        lo = mid
                    else:
                        hi = mid
                crossings.append(0.5 * (lo + hi))
        if not crossings:
            raise SolverError(
                f"no unity-gain point found for {self.config} inverter; "
                f"transfer curve may be degenerate (v_dd={vdd}, params={self.p})")
        return min(crossings), max(crossings)

    def v_m(self):
        lo, hi = 0.0, self.v_dd
        if self.v_out(lo) - lo <= 0:
            return lo
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.v_out(mid) - mid > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _classify(self, vin, vout):
        def region(v_ov, v_ds):
            if v_ov <= 0:
                return "cutoff"
            return "linear" if v_ds < v_ov else "saturation"
        p, vdd = self.p, self.v_dd
        out = {}
        if self.config == "cmos":
            out["pull_up"] = region((vdd - vin) - abs(p["vt_p"]), vdd - vout)
            out["pull_down"] = region(vin - p["vt_n"], vout)
        elif self.config == "depletion_load":
            out["pull_up"] = region(-p["vt_load"], vdd - vout)
            out["pull_down"] = region(vin - p["vt_driver"], vout)
        elif self.config == "pseudo_nmos":
            out["pull_up"] = region(vdd - abs(p["vt_p"]), vdd - vout)
            out["pull_down"] = region(vin - p["vt_n"], vout)
        else:
            out["pull_up"] = region((vdd - vin) - abs(p["vt_p"]), vdd - vout)
            out["pull_down"] = "resistor"
        return out

    def solve(self) -> VtcResult:
        v_oh = self.v_out(0.0)
        v_ol = self.v_out(self.v_dd)
        v_il, v_ih = self.unity_gain_points()
        v_m = self.v_m()
        if not (v_ol <= v_il <= v_ih <= v_oh):
            raise SolverError(
                f"inconsistent transfer points v_ol={v_ol:.4g} v_il={v_il:.4g} "
                f"v_ih={v_ih:.4g} v_oh={v_oh:.4g}")
        regions = {
            "at_v_il": self._classify(v_il, self.v_out(v_il)),
            "at_v_ih": self._classify(v_ih, self.v_out(v_ih)),
        }
        return VtcResult(v_ol=v_ol, v_oh=v_oh, v_il=v_il, v_ih=v_ih, v_m=v_m,
                         nm_l=v_il - v_ol, nm_h=v_oh - v_ih,
                         config=self.config, regions=regions)


def inverter_vtc(config: str, v_dd: float, **params) -> VtcResult:
    """Solve V_OL/V_OH/V_IL/V_IH/V_M for one of the supported topologies.

    ``k_*`` parameters are full transconductances (k' * W/L, A/V^2);
    depletion loads take a negative ``vt_load``; pmos thresholds may be
    given as magnitudes or negative values.
    """
    return _Vtc(config, v_dd, **params).solve()


def noise_margins(driver, receiver) -> dict:
    """Cross-stage margins: NM_L = V_IL(rx) - V_OL(drv), NM_H = V_OH(drv) - V_IH(rx)."""
    def get(obj, name):
        if isinstance(obj, dict):
            return obj[name]
        return getattr(obj, name)
    return {
        "nm_l": get(receiver, "v_il") - get(driver, "v_ol"),
        "nm_h": get(driver, "v_oh") - get(receiver, "v_ih"),
    }
