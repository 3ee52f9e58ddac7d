"""Certified lower bounds on BSA and GR from criterion violations.

BSA is the best-separable-approximation weight (in [0, 1]); GR is the
generalized robustness (in [0, inf)). A sum criterion with value S and
normalizers n, m certifies

    BSA >= max{0, -S/n},      GR >= max{0, -S/m},

and a product criterion with U^2 = Var(O1) Var(O2)/<B>^2 certifies

    BSA >= max{0, (<B>/n)(1 - U)}

with the tangent-optimal t_BSA^2 = Var(O1)/(4 Var(O2)), while the GR bound
maximizes (4 t <B> - Var(O1) - 4 t^2 Var(O2)) / m_t over t >= 0. That ratio
of two quadratics has its maximizer in closed form. The Giovannetti gains
(g_z, g_y) are searched numerically: a fixed grid of starts, then one
Nelder-Mead polish of the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sp_optimize

from .criteria import (
    ConstantVariance,
    ProductCriterion,
    SpectralConstants,
    SumCriterion,
    WitnessParams,
    _o2_variance,
    _role_cap,
    giovannetti_criterion,
    optimal_shifts,
    product_value,
    require_bsa_normalizer,
    spectral_constants,
    sum_value,
    wineland_criterion,
)
from .errors import (
    DegenerateCriterionError,
    NormalizationError,
    UnmeasuredMomentError,
    ValidationError,
)
from .moments import BipartiteMomentData, MomentData

# U^2 within this distance of 1 counts as "no violation": the exact boundary
# case U^2 = 1 otherwise leaks O(eps) bound values through float rounding.
U2_BOUNDARY_RTOL = 1e-13


@dataclass(frozen=True)
class BoundResult:
    """A certified bound value together with the parameters that certify it."""

    measure: str  # "bsa" or "gr"
    value: float
    criterion_value: float
    constants: SpectralConstants
    params: WitnessParams | None = None
    gains: tuple[float, float] | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.measure not in ("bsa", "gr"):
            raise ValidationError(f"measure must be bsa or gr, got {self.measure!r}")
        if self.value < 0:
            raise ValidationError("bound values are clamped at 0")
        if self.measure == "bsa" and self.value > 1 + 1e-12:
            raise ValidationError(f"BSA bound {self.value} exceeds 1")


def bsa_from_sum(criterion: SumCriterion, moments) -> BoundResult:
    """BSA >= max{0, -S/n} from a sum criterion."""
    s_val = sum_value(criterion, moments)
    consts = spectral_constants(criterion)
    n = require_bsa_normalizer(consts)
    value = min(1.0, max(0.0, -s_val / n))
    return BoundResult("bsa", value, s_val, consts, optimal_shifts(criterion, moments))


def gr_from_sum(criterion: SumCriterion, moments) -> BoundResult:
    """GR >= max{0, -S/m} from a sum criterion."""
    s_val = sum_value(criterion, moments)
    consts = spectral_constants(criterion)
    if consts.m <= 0:
        raise NormalizationError(f"m = {consts.m} <= 0: criterion unusable for GR")
    value = max(0.0, -s_val / consts.m)
    return BoundResult("gr", value, s_val, consts, optimal_shifts(criterion, moments))


def _normalized_product(criterion: ProductCriterion, moments):
    """Flip the sign of B if needed so that <B> >= 0; return (criterion, <B>)."""
    b_mean = criterion.b.mean(moments)
    if b_mean < 0:
        criterion = ProductCriterion(criterion.o1, criterion.o2, criterion.b.scaled(-1.0))
        b_mean = -b_mean
    return criterion, b_mean


def bsa_from_product(criterion: ProductCriterion, moments) -> BoundResult:
    """BSA >= max{0, (<B>/n)(1 - U)} with the closed-form optimal tangent."""
    criterion, b_mean = _normalized_product(criterion, moments)
    consts = spectral_constants(criterion)
    if b_mean == 0.0:
        return BoundResult(
            "bsa", 0.0, math.inf, consts, None, diagnostics={"degenerate": True}
        )
    n = require_bsa_normalizer(consts)
    u2 = product_value(criterion, moments)
    v1 = criterion.o1.variance(moments)
    v2 = _o2_variance(criterion, moments)
    t_bsa = math.sqrt(v1 / (4 * v2)) if v2 > 0 else math.inf
    if u2 >= 1.0 - U2_BOUNDARY_RTOL:
        value = 0.0
    else:
        value = min(1.0, max(0.0, (b_mean / n) * (1.0 - math.sqrt(u2))))
    params = optimal_shifts(criterion, moments)
    params = WitnessParams(params.s, t_bsa if math.isfinite(t_bsa) else None)
    diagnostics = {"b_mean": b_mean, "t_bsa": t_bsa, "degenerate": v2 == 0.0}
    return BoundResult("bsa", value, u2, consts, params, diagnostics=diagnostics)


def gr_tangent_ratio(criterion: ProductCriterion, moments, t: float) -> float:
    """(4 t <B> - Var(O1) - 4 t^2 Var(O2)) / m_t, the GR objective at tangent t."""
    criterion, b_mean = _normalized_product(criterion, moments)
    v1 = criterion.o1.variance(moments)
    v2 = _o2_variance(criterion, moments)
    m_t = spectral_constants(criterion, t=t).m_t
    return (4 * t * b_mean - v1 - 4 * t * t * v2) / m_t


def _nonnegative_roots(a: float, b: float, c: float) -> list[float]:
    """Nonnegative real roots of a t^2 + b t + c, ascending, computed without cancellation."""
    if a == 0.0:
        return [-c / b] if b != 0.0 and -c / b >= 0.0 else []
    disc = b * b - 4 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = [q / a] + ([c / q] if q != 0.0 else [])
    return sorted(r for r in roots if r >= 0.0)


def gr_from_product(criterion: ProductCriterion, moments) -> BoundResult:
    """GR bound from the tangent family, maximized over t >= 0 in closed form.

    With variances v1, v2, caps c1, c2 and lambda = lambda_min(B), the
    objective (4 t <B> - v1 - 4 t^2 v2) / (c1 + 4 t^2 c2 - 4 t lambda) is a
    ratio of two quadratics, so its derivative vanishes where
    4 (v2 lambda - <B> c2) t^2 + 2 (v1 c2 - v2 c1) t + <B> c1 - v1 lambda = 0.
    The maximizer is t = 0 or a nonnegative root of that quadratic. With
    v2 = c2 = 0 the ratio rises without a finite maximizer, and the result
    is reported degenerate with value 0.
    """
    criterion, b_mean = _normalized_product(criterion, moments)
    consts = spectral_constants(criterion)
    if b_mean == 0.0:
        return BoundResult(
            "gr", 0.0, math.inf, consts, None, diagnostics={"degenerate": True}
        )
    v1 = criterion.o1.variance(moments)
    v2 = _o2_variance(criterion, moments)
    c1 = _role_cap(criterion.o1)
    c2 = _role_cap(criterion.o2)
    lmin_b = criterion.b.bounds.lambda_min
    u2 = product_value(criterion, moments)
    if v2 == 0.0 and c2 == 0.0:
        return BoundResult("gr", 0.0, u2, consts, None, diagnostics={"degenerate": True})

    def objective(t: float) -> float:
        return (4 * t * b_mean - v1 - 4 * t * t * v2) / (c1 + 4 * t * t * c2 - 4 * t * lmin_b)

    roots = _nonnegative_roots(
        4 * (v2 * lmin_b - b_mean * c2), 2 * (v1 * c2 - v2 * c1), b_mean * c1 - v1 * lmin_b
    )
    # max keeps the first of equal scores, so ties resolve toward smaller t.
    t_star = max([0.0] + roots, key=objective)
    ratio = objective(t_star)
    value = 0.0 if u2 >= 1.0 - U2_BOUNDARY_RTOL else max(0.0, ratio)
    params = optimal_shifts(criterion, moments)
    params = WitnessParams(params.s, t_star)
    consts_t = spectral_constants(criterion, t=t_star)
    diagnostics = {"b_mean": b_mean, "ratio": ratio, "degenerate": v2 == 0.0}
    return BoundResult("gr", value, u2, consts_t, params, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Wineland spin-squeezing application


def wineland_moment_data(n: float, var_jz: float, contrast: float) -> MomentData:
    """MomentData holding exactly the inputs of the squeezing analysis.

    <J_x> = contrast * N/2 and Var(J_z) = var_jz; every other moment entry
    is flagged unmeasured.
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    if var_jz < 0:
        raise ValidationError("var_jz must be nonnegative")
    mean = np.array([contrast * n / 2, np.nan, np.nan])
    cov = np.zeros((3, 3))
    cov[2, 2] = var_jz
    unmeasured = frozenset({(0, 0), (1, 1), (0, 1), (0, 2), (1, 2)})
    return MomentData(n, mean, cov, unmeasured)


def wineland_moment_data_from_xi2(n: float, xi2: float, contrast: float) -> MomentData:
    """Inputs reconstructed from a squeezing level: Var(J_z) = xi^2 C^2 N / 4."""
    if xi2 < 0:
        raise ValidationError("xi2 must be nonnegative")
    var_jz = xi2 * (contrast * n / 2) ** 2 / n
    return wineland_moment_data(n, var_jz, contrast)


def wineland_xi2(moments: MomentData) -> tuple[float, float]:
    """Squeezing parameter xi^2 = N Var(J_z)/<J_x>^2 and contrast C = <J_x>/(N/2)."""
    n = moments.n_particles
    jx = moments.mean_value(0)
    if jx == 0.0:
        raise DegenerateCriterionError("degenerate squeezing parameter: <J_x> = 0")
    var_jz = moments.cov_value(2, 2)
    xi2 = n * var_jz / jx**2
    contrast = jx / (n / 2)
    return xi2, contrast


def xi2_db(xi2: float) -> float:
    """Squeezing in decibels, 10 log10(xi^2)."""
    if xi2 <= 0:
        return -math.inf
    return 10.0 * math.log10(xi2)


@dataclass(frozen=True)
class WinelandReport:
    """Bounds derived from the Wineland criterion for one moments set."""

    xi2: float
    contrast: float
    bsa: BoundResult
    gr: BoundResult
    gr_first_order: float

    @property
    def xi2_db(self) -> float:
        return xi2_db(self.xi2)


def wineland_bounds(moments: MomentData) -> WinelandReport:
    """BSA = max{0, C(1 - xi)}, tangent-optimized GR, and first-order GR.

    The first-order value max{0, C^2 (1 - xi^2)/N} is kept as an independent
    cross-check of the closed-form tangent.
    """
    xi2, contrast = wineland_xi2(moments)
    criterion = wineland_criterion(moments.n_particles)
    bsa = bsa_from_product(criterion, moments)
    gr = gr_from_product(criterion, moments)
    gr_first = max(0.0, contrast**2 * (1.0 - xi2) / moments.n_particles)
    return WinelandReport(xi2, contrast, bsa, gr, gr_first)


# ---------------------------------------------------------------------------
# Giovannetti two-ensemble application

_REQUIRED_GIOVANNETTI = (
    ("zA", "zA"), ("zB", "zB"), ("zA", "zB"),
    ("yA", "yA"), ("yB", "yB"), ("yA", "yB"),
)


def _check_giovannetti_moments(m: BipartiteMomentData) -> None:
    for a, b in _REQUIRED_GIOVANNETTI:
        m.cov_value(m.axis_index(a), m.axis_index(b))
    m.mean_value(m.axis_index("xA"))
    m.mean_value(m.axis_index("xB"))


def _giovannetti_signs(m: BipartiteMomentData) -> tuple[float, float]:
    sign_a = -1.0 if m.mean_value(m.axis_index("xA")) < 0 else 1.0
    sign_b = -1.0 if m.mean_value(m.axis_index("xB")) < 0 else 1.0
    return sign_a, sign_b


def giovannetti_g2(m: BipartiteMomentData, g_z: float, g_y: float) -> float:
    """G^2 = Var(g_z Jz^A + Jz^B) Var(g_y Jy^A + Jy^B) / ((|gz gy||<Jx^A>| + |<Jx^B>|)^2/4)."""
    _check_giovannetti_moments(m)
    sign_a, sign_b = _giovannetti_signs(m)
    criterion = giovannetti_criterion(m.n_a, m.n_b, g_z, g_y, sign_a, sign_b)
    return product_value(criterion, m)


@dataclass(frozen=True)
class GiovannettiReport:
    """Gain-optimized criterion value and bounds for a bipartition."""

    g2: float
    bsa: BoundResult
    gr: BoundResult


# Gain-search starts: five log-spaced magnitudes in [0.1, 10] per gain, with both signs.
GAIN_STARTS = tuple(
    (float(sz * mz), float(sy * my))
    for mz in np.logspace(-1.0, 1.0, 5)
    for my in np.logspace(-1.0, 1.0, 5)
    for sz in (1.0, -1.0)
    for sy in (1.0, -1.0)
)


def giovannetti_bounds(m: BipartiteMomentData) -> GiovannettiReport:
    """Maximize the BSA and GR bounds over the gains (g_z, g_y).

    Each objective is evaluated at every pair in GAIN_STARTS, and only the
    best start is polished by one Nelder-Mead run; `converged` records that
    run's success. Any feasible gain pair certifies, so a suboptimal search
    only loosens the bound. The GR objective takes its tangent in closed
    form at every gain pair.
    """
    _check_giovannetti_moments(m)
    sign_a, sign_b = _giovannetti_signs(m)
    if m.mean_value(0) == 0.0 and m.mean_value(3) == 0.0:
        # Both mean spins vanish: every gain pair is degenerate, and the zero
        # bound is exact without a search.
        crit = giovannetti_criterion(m.n_a, m.n_b, 1.0, 1.0)
        zero = BoundResult(
            "bsa", 0.0, math.inf, spectral_constants(crit), None, gains=(1.0, 1.0),
            diagnostics={"degenerate": True, "converged": True},
        )
        zero_gr = BoundResult(
            "gr", 0.0, math.inf, spectral_constants(crit), None, gains=(1.0, 1.0),
            diagnostics={"degenerate": True, "converged": True},
        )
        return GiovannettiReport(math.inf, zero, zero_gr)

    def criterion_at(g):
        return giovannetti_criterion(m.n_a, m.n_b, g[0], g[1], sign_a, sign_b)

    def bsa_objective(g):
        crit, b_mean = _normalized_product(criterion_at(g), m)
        if b_mean == 0.0:
            return -1.0
        n = spectral_constants(crit).n
        u2 = product_value(crit, m)
        return (b_mean / n) * (1.0 - math.sqrt(u2))

    def gr_objective(g):
        result = gr_from_product(criterion_at(g), m)
        # Unclamped ratio keeps the landscape smooth away from violations.
        ratio = result.diagnostics.get("ratio")
        return result.value if ratio is None else ratio

    best = {}
    converged = {}
    for name, objective in (("bsa", bsa_objective), ("gr", gr_objective)):
        values = [objective(g) for g in GAIN_STARTS]
        k = int(np.argmax(values))
        best_val, best_g = values[k], GAIN_STARTS[k]
        res = sp_optimize.minimize(
            lambda g: -objective(g),
            np.array(best_g),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14},
        )
        converged[name] = bool(res.success)
        if -res.fun > best_val:
            best_g = (float(res.x[0]), float(res.x[1]))
        best[name] = best_g

    g_bsa = best["bsa"]
    g_gr = best["gr"]
    bsa = bsa_from_product(criterion_at(g_bsa), m)
    bsa = BoundResult(
        "bsa", bsa.value, bsa.criterion_value, bsa.constants, bsa.params,
        gains=g_bsa,
        diagnostics={**bsa.diagnostics, "converged": converged["bsa"]},
    )
    gr = gr_from_product(criterion_at(g_gr), m)
    gr = BoundResult(
        "gr", gr.value, gr.criterion_value, gr.constants, gr.params,
        gains=g_gr,
        diagnostics={**gr.diagnostics, "converged": converged["gr"]},
    )
    g2 = giovannetti_g2(m, *g_bsa)
    return GiovannettiReport(g2, bsa, gr)
