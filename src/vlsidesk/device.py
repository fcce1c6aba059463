"""Long-channel (square-law) MOSFET model and inverter transfer curves.

Conventions:
  * SI units at the API: volts, amps, farads, meters. Dopings in cm^-3,
    permittivities in F/cm (junction math runs in cm internally).
  * pMOS devices carry signed vt0/gamma; callers supply source-referenced
    magnitudes (V_SG, V_SD, body-bias magnitude) for bias calculations.
"""

import functools
import math

from . import Record
from .errors import DomainError, GeometryError, InputError, SolverError

EPS0 = 8.85e-14  # F/cm


class PhysicalConstants(Record):
    """n_i in cm^-3, eps_si and eps_ox in F/cm, kt_over_q in V, q in C."""
    _fields = ("n_i", "eps_si", "eps_ox", "kt_over_q", "q")

    def __init__(self, n_i=1.45e10, eps_si=11.7 * EPS0, eps_ox=3.9 * EPS0,
                 kt_over_q=0.026, q=1.6e-19):
        self.__dict__.update(n_i=n_i, eps_si=eps_si, eps_ox=eps_ox,
                             kt_over_q=kt_over_q, q=q)
        for name in self._fields:
            if getattr(self, name) <= 0:
                raise InputError(f"constant {name} must be positive")


CONSTANTS = PhysicalConstants()


class MosDevice(Record):
    """Process and geometry parameters of one transistor.

    ``w``/``l`` may be given directly as a ratio (l=1, l_d=0) when only
    W/L matters. ``x_j_sw`` is the sidewall junction depth and defaults
    to ``x_j``; some processes quote a deeper channel-stop sidewall.
    """

    _fields = ("polarity", "k_prime", "vt0", "gamma", "phi_f2", "lambda_", "w", "l", "l_d",
               "t_ox", "c_ox", "n_d", "n_a_sub", "n_a_sw", "x_j", "x_j_sw", "y", "m_j",
               "m_jsw")

    def __init__(self, polarity="nmos",
                 k_prime=1e-4,   # A/V^2
                 vt0=0.5,        # V, signed
                 gamma=0.0,      # V^0.5, signed
                 phi_f2=0.6,     # |2*phi_F|, V
                 lambda_=0.0,    # 1/V
                 w=1.0, l=1.0, l_d=0.0,
                 t_ox=0.0,       # m; 0 if c_ox given directly
                 c_ox=0.0,       # F/m^2 override; 0 to derive from t_ox
                 n_d=0.0,        # cm^-3 (drain)
                 n_a_sub=0.0,    # cm^-3 (substrate)
                 n_a_sw=0.0,     # cm^-3 (channel stop)
                 x_j=0.0,        # m
                 x_j_sw=0.0,     # m; defaults to x_j
                 y=0.0,          # m, drain diffusion extent
                 m_j=0.5, m_jsw=0.5):
        if polarity not in ("nmos", "pmos"):
            raise InputError(f"polarity must be nmos or pmos, not {polarity!r}")
        if w <= 0 or l <= 0:
            raise GeometryError("w and l must be positive")
        if l - 2 * l_d < 0:
            raise GeometryError("effective length l - 2*l_d is negative")
        if k_prime <= 0:
            raise InputError("k_prime must be positive")
        for m in (m_j, m_jsw):
            if not 0 < m <= 1:
                raise InputError("grading coefficients must be in (0, 1]")
        if x_j_sw == 0.0:
            x_j_sw = x_j
        self.__dict__.update(
            polarity=polarity, k_prime=k_prime, vt0=vt0, gamma=gamma, phi_f2=phi_f2,
            lambda_=lambda_, w=w, l=l, l_d=l_d, t_ox=t_ox, c_ox=c_ox, n_d=n_d,
            n_a_sub=n_a_sub, n_a_sw=n_a_sw, x_j=x_j, x_j_sw=x_j_sw, y=y, m_j=m_j,
            m_jsw=m_jsw)

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


class OperatingPoint(Record):
    _fields = ("region", "i_d", "v_t", "v_gs", "v_ds", "v_sb")

    def __init__(self, region, i_d, v_t, v_gs, v_ds, v_sb):
        self.__dict__.update(region=region, i_d=i_d, v_t=v_t, v_gs=v_gs, v_ds=v_ds,
                             v_sb=v_sb)


class CapReport(Record):
    _fields = ("c_gb", "c_gs", "c_gd", "c_ox_total", "c_overlap", "c_bottom",
               "c_sidewall", "c_junction_total")

    def __init__(self, c_gb, c_gs, c_gd, c_ox_total, c_overlap, c_bottom, c_sidewall,
                 c_junction_total):
        self.__dict__.update(c_gb=c_gb, c_gs=c_gs, c_gd=c_gd, c_ox_total=c_ox_total,
                             c_overlap=c_overlap, c_bottom=c_bottom, c_sidewall=c_sidewall,
                             c_junction_total=c_junction_total)


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


def _region(v_ov: float, v_ds: float) -> str:
    """Operating region that ``square_law_current`` evaluates at this bias."""
    if v_ov <= 0:
        return "cutoff"
    return "linear" if v_ds < v_ov else "saturation"


def bias_point(dev: MosDevice, v_gs: float, v_ds: float, v_sb: float = 0.0) -> OperatingPoint:
    """Classify the operating region and evaluate the drain current.

    For pMOS pass source-referenced magnitudes (V_SG, V_SD, |V_BS|); the
    effective threshold is reported signed. A negative v_ds raises InputError.
    """
    for name, v in (("v_gs", v_gs), ("v_ds", v_ds), ("v_sb", v_sb)):
        if not math.isfinite(v):
            raise InputError(f"{name} is not finite")
    if v_ds < 0:
        raise InputError("v_ds is a source-referenced magnitude, must be >= 0")
    v_t = threshold_voltage(dev, v_sb)
    v_ov = v_gs - abs(v_t)
    i_d = square_law_current(dev.k_prime * dev.wl_ratio, v_ov, v_ds, dev.lambda_)
    return OperatingPoint(_region(v_ov, v_ds), i_d, v_t, v_gs, v_ds, v_sb)


def _junction_caps(dev: MosDevice, v_reverse: float, consts: PhysicalConstants):
    # cm-based: abrupt-junction builtin potential and zero-bias cap density
    if not (dev.n_d and dev.n_a_sub and dev.w and dev.y):
        return 0.0, 0.0
    w, y = dev.w * 1e2, dev.y * 1e2
    x_j, x_j_sw = dev.x_j * 1e2, dev.x_j_sw * 1e2

    def c_area(n_a, phi_exp):
        if not (n_a > 0 and dev.n_d > 0 and n_a * dev.n_d > consts.n_i**2):
            raise DomainError(f"dopings n_a={n_a:g} and n_d={dev.n_d:g} cm^-3 give no positive "
                              f"built-in potential: need n_a * n_d > n_i^2 = {consts.n_i**2:g}")
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
    caps = CapReport(
        c_gb=c_gb, c_gs=c_gs, c_gd=c_gd, c_ox_total=c_gb + c_gs + c_gd,
        c_overlap=c_ov, c_bottom=c_bottom, c_sidewall=c_sidewall,
        c_junction_total=c_bottom + c_sidewall,
    )
    if not all(map(math.isfinite, vars(caps).values())):
        raise DomainError(f"capacitances are not finite: {vars(caps)}")
    return caps


QUANTITIES = ("V", "I", "C", "R", "R_sheet", "delay", "P", "E", "power_density")


class ScalingFactors(Record):
    _fields = ("mode", "s", "m", "factors")

    def __init__(self, mode, s, m, factors=None):
        self.__dict__.update(mode=mode, s=s, m=m, factors={} if factors is None else factors)

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
    try:
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
    except OverflowError as e:
        raise DomainError(f"scaling factors for s={s:g}, m={sd:g} overflow") from e
    if not all(map(math.isfinite, factors.values())):
        raise DomainError(f"scaling factors for s={s:g}, m={sd:g} are not finite: {factors}")
    return ScalingFactors(mode=mode, s=sv, m=sd, factors=factors)


class VtcResult(Record):
    _fields = ("v_ol", "v_oh", "v_il", "v_ih", "v_m", "nm_l", "nm_h", "config", "regions")

    def __init__(self, v_ol, v_oh, v_il, v_ih, v_m, nm_l, nm_h, config="", regions=None):
        self.__dict__.update(v_ol=v_ol, v_oh=v_oh, v_il=v_il, v_ih=v_ih, v_m=v_m, nm_l=nm_l,
                             nm_h=nm_h, config=config,
                             regions={} if regions is None else regions)


def _bisect(f, lo, hi, steps):
    """Fixed-step bisection where f falls from > 0 to <= 0; ends are returned as is."""
    if f(lo) <= 0:
        return lo
    if f(hi) >= 0:
        return hi
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _Fet(Record):
    """Square-law element: transconductance and threshold keys, gate drive.
    pMOS thresholds enter the overdrive as magnitudes, nMOS ones signed."""
    _fields = ("polarity", "k", "vt", "gate")

    def __init__(self, polarity, k, vt, gate):
        self.__dict__.update(polarity=polarity, k=k, vt=vt, gate=gate)

    def keys(self):
        return self.k, self.vt

    def at(self, p, v_dd, v_gs_in):
        """Current and region as functions of V_DS; a driven gate sees v_gs_in."""
        v_gs = {"v_in": v_gs_in, "on": v_dd, "source": 0.0}[self.gate]
        v_ov = v_gs - (abs(p[self.vt]) if self.polarity == "pmos" else p[self.vt])
        return (functools.partial(square_law_current, p[self.k], v_ov),
                functools.partial(_region, v_ov))


class _Resistor(Record):
    _fields = ("r",)

    def __init__(self, r):
        self.__dict__["r"] = r

    def keys(self):
        return (self.r,)

    def at(self, p, v_dd, v_gs_in):
        r = p[self.r]
        return (lambda v_ds: v_ds / r), (lambda v_ds: "resistor")


# (pull-up, pull-down) element of each inverter configuration. A pull-up's
# source sits at v_dd, a pull-down's at ground. A gate is driven by "v_in",
# tied "on" to the opposite rail, or tied to its own "source" (V_GS = 0, the
# depletion load). The first key of each element (k_* or r_load) must be > 0.
INVERTER_ELEMENTS = {
    "cmos": (_Fet("pmos", "k_p", "vt_p", "v_in"), _Fet("nmos", "k_n", "vt_n", "v_in")),
    "depletion_load": (_Fet("nmos", "k_load", "vt_load", "source"),
                       _Fet("nmos", "k_driver", "vt_driver", "v_in")),
    "resistive_load": (_Fet("pmos", "k_p", "vt_p", "v_in"), _Resistor("r_load")),
    "pseudo_nmos": (_Fet("pmos", "k_p", "vt_p", "on"), _Fet("nmos", "k_n", "vt_n", "v_in")),
}


class _Vtc:
    """DC transfer curve of a ratioed or complementary inverter.

    The pull-up and pull-down elements of ``INVERTER_ELEMENTS`` are current
    sources I(v_in, v_out); for every input the output solves I_up = I_down
    by bisection (the difference is monotone in v_out), then the
    unity-slope points are refined from a dense scan. Region assumptions
    are classified after the fact rather than assumed up front.
    """

    def __init__(self, config, v_dd, **p):
        self.config = config
        self.v_dd = float(v_dd)
        if self.v_dd <= 0:
            raise InputError("v_dd must be positive")
        if config not in INVERTER_ELEMENTS:
            raise InputError(f"unknown inverter config {config!r}")
        self.p = p
        self.elements = INVERTER_ELEMENTS[config]
        used = [k for e in self.elements for k in e.keys()]
        missing = [k for k in used if k not in p]
        if missing:
            raise InputError(f"{config} needs parameters {missing}")
        stray = [k for k in p if k not in used]
        if stray:
            raise InputError(f"{config} does not use parameters {stray}")
        for key in (e.keys()[0] for e in self.elements):
            if not p[key] > 0:
                raise InputError(f"{key} must be positive")

    def _at(self, vin):
        """(current, region) functions of V_DS of the pull-up and pull-down at vin."""
        up, down = self.elements
        return up.at(self.p, self.v_dd, self.v_dd - vin), down.at(self.p, self.v_dd, vin)

    def v_out(self, vin):
        vdd = self.v_dd
        (i_up, _), (i_down, _) = self._at(vin)
        return _bisect(lambda vout: i_up(vdd - vout) - i_down(vout), 0.0, vdd, 80)

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
                crossings.append(_bisect(lambda v: (self.slope(v) + 1.0) * g[i],
                                         grid[i], grid[i + 1], 60))
        if not crossings:
            raise SolverError(
                f"no unity-gain point found for {self.config} inverter; "
                f"transfer curve may be degenerate (v_dd={vdd}, params={self.p})")
        return min(crossings), max(crossings)

    def v_m(self):
        return _bisect(lambda v: self.v_out(v) - v, 0.0, self.v_dd, 80)

    def solve(self) -> VtcResult:
        v_oh = self.v_out(0.0)
        v_ol = self.v_out(self.v_dd)
        v_il, v_ih = self.unity_gain_points()
        v_m = self.v_m()
        if not (v_ol <= v_il <= v_ih <= v_oh):
            raise SolverError(
                f"inconsistent transfer points v_ol={v_ol:.4g} v_il={v_il:.4g} "
                f"v_ih={v_ih:.4g} v_oh={v_oh:.4g}")
        regions = {}
        for name, vin in (("at_v_il", v_il), ("at_v_ih", v_ih)):
            vout = self.v_out(vin)
            (_, up), (_, down) = self._at(vin)
            regions[name] = {"pull_up": up(self.v_dd - vout), "pull_down": down(vout)}
        return VtcResult(v_ol=v_ol, v_oh=v_oh, v_il=v_il, v_ih=v_ih, v_m=v_m,
                         nm_l=v_il - v_ol, nm_h=v_oh - v_ih, config=self.config,
                         regions=regions)


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
