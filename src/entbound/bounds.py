"""Certified lower bounds on BSA and GR from criterion violations.

BSA is the best-separable-approximation weight (in [0, 1]); GR is the
generalized robustness (in [0, inf)). A sum criterion with value S and
normalizers n, m certifies

    BSA >= max{0, -S/n},      GR >= max{0, -S/m},

and a product criterion with U^2 = Var(O1) Var(O2)/<B>^2 certifies

    BSA >= max{0, (<B>/n)(1 - U)}

with the tangent-optimal t_BSA^2 = Var(O1)/(4 Var(O2)), while the GR bound
maximizes (4 t <B> - Var(O1) - 4 t^2 Var(O2)) / m_t over t >= 0.
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
from .optimize import golden_section_max

# Bracket cap for the tangent search when Var(O2) degenerates to 0.
T_BRACKET_CAP = 1e6

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


def gr_from_product(criterion: ProductCriterion, moments, rel_tol: float = 1e-12) -> BoundResult:
    """GR bound from the tangent family, maximized by golden-section search.

    The bracket is [0, <B>/Var(O2)]; past its upper end the numerator is
    negative. On the bracket the objective is a ratio of a concave quadratic
    over a positive convex quadratic, rising at t = 0, hence unimodal.
    """
    criterion, b_mean = _normalized_product(criterion, moments)
    consts = spectral_constants(criterion)
    if b_mean == 0.0:
        return BoundResult(
            "gr", 0.0, math.inf, consts, None, diagnostics={"degenerate": True}
        )
    v1 = criterion.o1.variance(moments)
    v2 = _o2_variance(criterion, moments)
    v1_cap = _role_cap(criterion.o1, False)
    v2_cap = _role_cap(criterion.o2, False)
    lmin_b = criterion.b.bounds.lambda_min

    t_hi = b_mean / max(v2, b_mean / T_BRACKET_CAP)
    if not math.isfinite(t_hi) or t_hi <= 0:
        return BoundResult(
            "gr", 0.0, product_value(criterion, moments), consts, None,
            diagnostics={"degenerate": True},
        )

    def objective(t: float) -> float:
        return (4 * t * b_mean - v1 - 4 * t * t * v2) / (
            v1_cap + 4 * t * t * v2_cap - 4 * t * lmin_b
        )

    t_star, ratio, iterations = golden_section_max(objective, 0.0, t_hi, rel_tol=rel_tol)
    u2 = product_value(criterion, moments)
    value = 0.0 if u2 >= 1.0 - U2_BOUNDARY_RTOL else max(0.0, ratio)
    params = optimal_shifts(criterion, moments)
    params = WitnessParams(params.s, t_star)
    consts_t = spectral_constants(criterion, t=t_star)
    diagnostics = {
        "b_mean": b_mean,
        "bracket": (0.0, t_hi),
        "iterations": iterations,
        "ratio": ratio,
        "converged": True,
        "degenerate": v2 == 0.0,
    }
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
    cross-check of the numeric tangent optimization.
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


def _gain_starts(grid_points: int, g_range: tuple[float, float]):
    mags = np.logspace(math.log10(g_range[0]), math.log10(g_range[1]), grid_points)
    for mz in mags:
        for my in mags:
            for sz in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    yield (sz * mz, sy * my)


def giovannetti_bounds(
    m: BipartiteMomentData,
    grid_points: int = 5,
    g_range: tuple[float, float] = (0.1, 10.0),
    nm_max_iter: int = 200,
) -> GiovannettiReport:
    """Maximize the BSA and GR bounds over the gains (g_z, g_y).

    Deterministic multi-start Nelder-Mead over a log-spaced magnitude grid
    with both signs; any feasible gain pair certifies, so a suboptimal
    search only loosens the bound. The GR objective nests the 1-D tangent
    search at every gain evaluation.
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
    converged = {"bsa": True, "gr": True}
    for name, objective in (("bsa", bsa_objective), ("gr", gr_objective)):
        best_val, best_g = -math.inf, (1.0, 1.0)
        for start in _gain_starts(grid_points, g_range):
            val0 = objective(start)
            if val0 > best_val:
                best_val, best_g = val0, start
            res = sp_optimize.minimize(
                lambda g: -objective(g),
                np.array(start, dtype=float),
                method="Nelder-Mead",
                options={"maxiter": nm_max_iter, "xatol": 1e-10, "fatol": 1e-14},
            )
            if not res.success:
                converged[name] = False
            if -res.fun > best_val:
                best_val, best_g = -res.fun, (float(res.x[0]), float(res.x[1]))
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
