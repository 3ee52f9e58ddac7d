import math

import numpy as np
import pytest

from entbound.bounds import (
    BoundResult,
    bsa_from_product,
    bsa_from_sum,
    giovannetti_bounds,
    giovannetti_g2,
    gr_from_product,
    gr_from_sum,
    gr_tangent_ratio,
    wineland_bounds,
    wineland_moment_data,
    wineland_moment_data_from_xi2,
    wineland_xi2,
    xi2_db,
)
from entbound.criteria import (
    OperatorRole,
    SumCriterion,
    giovannetti_criterion,
    spectral_constants,
    tangent_sum_criterion,
    wineland_criterion,
)
from entbound.errors import (
    DegenerateCriterionError,
    NormalizationError,
    UnmeasuredMomentError,
    ValidationError,
)
from entbound.operators import SpectralBounds
from entbound.simulator import (
    SplitConfig,
    css_x,
    exact_moments,
    oat_evolve,
    optimal_squeezing_rotation,
    rotate_x,
    split_state_moments,
)

PAPER = wineland_moment_data(476, 32.0, 0.980)


def squeezed_state(n, mu):
    s = oat_evolve(css_x(n), mu)
    return rotate_x(s, optimal_squeezing_rotation(s))


# ---------------------------------------------------------------------------
# sum-form bounds


def _jz_sum_criterion(n):
    half = n / 2
    jz = OperatorRole.from_mapping({"z": 1.0}, SpectralBounds(-half, half, True))
    jx = OperatorRole.from_mapping({"x": 1.0}, SpectralBounds(-half, half, True))
    return SumCriterion((jz,), jx)


def test_nonnegative_s_clamps_to_zero():
    n = 20
    md = exact_moments(css_x(n))
    crit = tangent_sum_criterion(wineland_criterion(n), 0.3)
    assert bsa_from_sum(crit, md).value == 0.0
    assert gr_from_sum(crit, md).value == 0.0


def test_s_equal_minus_n_gives_bsa_one():
    half = 3.0
    jz = OperatorRole.from_mapping({"z": 1.0}, SpectralBounds(-half, half, True))
    jx = OperatorRole.from_mapping({"x": 1.0}, SpectralBounds(-half, half, True))
    crit = SumCriterion((jz,), jx)
    from entbound.moments import MomentData

    md = MomentData(6.0, [3.0, 0.0, 0.0], np.zeros((3, 3)))
    # S = 0 - <J_x> = -3 = -n
    res = bsa_from_sum(crit, md)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_fixed_tangent_cross_path_consistency():
    # S_t at the working point is positive for t = 0.49, negative at 0.245
    t1 = tangent_sum_criterion(wineland_criterion(476), 0.49)
    from entbound.criteria import sum_value

    s_49 = sum_value(t1, PAPER)
    assert s_49 == pytest.approx(32.0, abs=0.2)
    assert bsa_from_sum(t1, PAPER).value == 0.0

    t2 = tangent_sum_criterion(wineland_criterion(476), 0.245)
    s_245 = sum_value(t2, PAPER)
    assert s_245 == pytest.approx(-82.2876, abs=1e-10)
    # the fixed-t sum route and the t-ratio route agree identically
    ratio = gr_tangent_ratio(wineland_criterion(476), PAPER, 0.245)
    assert gr_from_sum(t2, PAPER).value == pytest.approx(ratio, rel=1e-12)


def test_gr_fixed_t_algebraic_identity():
    # gr at fixed t equals gr_from_sum of the mapped criterion (O2->2tO2, B->4tB)
    n = 60
    md = exact_moments(squeezed_state(n, 0.03))
    pc = wineland_criterion(n)
    for t in (0.1, 0.21, 0.4):
        mapped = tangent_sum_criterion(pc, t)
        assert gr_from_sum(mapped, md).value == pytest.approx(
            max(0.0, gr_tangent_ratio(pc, md, t)), abs=1e-12
        )


def test_nonpositive_normalizer_raises():
    neg_b = OperatorRole.from_mapping({"x": 1.0}, SpectralBounds(-1.0, -0.1, True))
    jz = OperatorRole.from_mapping({"z": 1.0}, SpectralBounds(-0.5, 0.5, True))
    crit = SumCriterion((jz,), neg_b)
    from entbound.moments import MomentData

    md = MomentData(1.0, [-0.2, 0.0, 0.0], np.eye(3) * 0.25)
    with pytest.raises(NormalizationError):
        bsa_from_sum(crit, md)


# ---------------------------------------------------------------------------
# product-form bounds


def test_bsa_paper_point():
    res = bsa_from_product(wineland_criterion(476), PAPER)
    assert res.value == pytest.approx(0.461, abs=0.005)
    assert res.value == pytest.approx(0.4614370211582686, rel=1e-12)
    # recorded optimal tangent t_BSA = sqrt(Var(O1)/(4 Var(O2)))
    assert res.params.t == pytest.approx(math.sqrt(32.0 / (4 * 476)), rel=1e-12)
    assert res.diagnostics["b_mean"] == pytest.approx(233.24)


def test_bsa_no_violation_clamps():
    n = 30
    md = exact_moments(css_x(n))
    res = bsa_from_product(wineland_criterion(n), md)
    assert res.value == 0.0


def test_bsa_degenerate_b():
    md = wineland_moment_data(476, 32.0, 0.0)
    res = bsa_from_product(wineland_criterion(476), md)
    assert res.value == 0.0
    assert res.diagnostics["degenerate"]


def test_gr_paper_point_dominates_fixed_t():
    res = gr_from_product(wineland_criterion(476), PAPER)
    fixed = gr_tangent_ratio(wineland_criterion(476), PAPER, 0.245)
    assert fixed == pytest.approx(82.2876 / 56991.5276, rel=1e-10)
    assert res.value >= fixed
    assert res.value == pytest.approx(0.001443873759248, rel=1e-9)
    assert res.params.t == pytest.approx(0.2442863, abs=1e-4)


def test_gr_no_violation_is_zero():
    # Var(O1) Var(O2) >= <B>^2 makes the numerator nonpositive for every t
    n = 40
    md = exact_moments(css_x(n))
    res = gr_from_product(wineland_criterion(n), md)
    assert res.value == 0.0


def test_gr_closed_form_tangent_beats_dense_grid():
    # the closed-form tangent is never beaten by a dense t grid, and t* is
    # a stationary point of the ratio (or t = 0)
    t_grid = np.linspace(0.0, 1.0, 401)
    for n in (2, 10, 100, 476, 1000, 10_000):
        crit = wineland_criterion(n)
        for db in np.linspace(-15.0, 0.5, 12):
            for contrast in (0.5, 0.9, 0.98):
                md = wineland_moment_data_from_xi2(n, 10 ** (db / 10), contrast)
                res = gr_from_product(crit, md)
                grid_max = max(gr_tangent_ratio(crit, md, t) for t in t_grid)
                assert res.value >= grid_max - 1e-12 * abs(grid_max)
                t = res.params.t
                if t > 0.0:
                    r0 = gr_tangent_ratio(crit, md, t)
                    lo = gr_tangent_ratio(crit, md, t * (1 - 1e-4))
                    hi = gr_tangent_ratio(crit, md, t * (1 + 1e-4))
                    assert abs(hi - lo) <= 1e-9 * abs(r0)
                    assert r0 >= max(lo, hi)


def test_gr_no_finite_maximizer_is_degenerate():
    # Var(O2) = 0 with a zero O2 cap: the tangent ratio keeps rising in t
    from entbound.criteria import criterion_from_config
    from entbound.moments import MomentData

    spin = {"lambda_min": -3.0, "lambda_max": 3.0}
    crit = criterion_from_config({
        "kind": "custom", "form": "product",
        "o1": {"coeffs": {"z": 1.0}, **spin},
        "o2": {"constant": 0},
        "b": {"coeffs": {"x": 1.0}, **spin},
    })
    md = MomentData(6.0, [2.0, 0.0, 0.0], np.eye(3) * 0.5)
    ratios = [gr_tangent_ratio(crit, md, t) for t in (1.0, 10.0, 100.0, 1e4)]
    assert ratios == sorted(ratios)
    res = gr_from_product(crit, md)
    assert res.value == 0.0
    assert res.params is None
    assert res.diagnostics["degenerate"]


def test_certification_recompute():
    # recomputing the bound expression at the returned parameters reproduces it
    res = gr_from_product(wineland_criterion(476), PAPER)
    again = gr_tangent_ratio(wineland_criterion(476), PAPER, res.params.t)
    assert res.value == pytest.approx(again, abs=1e-10)
    bsa = bsa_from_product(wineland_criterion(476), PAPER)
    u = math.sqrt(bsa.criterion_value)
    b_mean = bsa.diagnostics["b_mean"]
    assert bsa.value == pytest.approx((b_mean / bsa.constants.n) * (1 - u), abs=1e-12)


def test_negative_mean_spin_sign_normalization():
    flipped = wineland_moment_data(476, 32.0, -0.980)
    res = bsa_from_product(wineland_criterion(476), flipped)
    assert res.value == pytest.approx(0.4614370211582686, rel=1e-12)
    gr = gr_from_product(wineland_criterion(476), flipped)
    assert gr.value == pytest.approx(0.001443873759248, rel=1e-9)


# ---------------------------------------------------------------------------
# Wineland application


def test_wineland_xi2_paper_values():
    xi2, c = wineland_xi2(PAPER)
    assert xi2 == pytest.approx(0.2800, abs=1e-3)
    assert xi2 == pytest.approx(0.2799953800762287, rel=1e-12)
    assert c == pytest.approx(0.980)
    assert xi2_db(xi2) == pytest.approx(-5.53, abs=0.01)


def test_wineland_xi2_css():
    n = 80
    md = exact_moments(css_x(n))
    xi2, c = wineland_xi2(md)
    assert xi2 == pytest.approx(1.0, abs=1e-10)
    assert c == pytest.approx(1.0, abs=1e-12)


def test_wineland_xi2_degenerate():
    md = wineland_moment_data(476, 32.0, 0.0)
    with pytest.raises(DegenerateCriterionError):
        wineland_xi2(md)


def test_wineland_report_paper_point():
    rep = wineland_bounds(PAPER)
    assert rep.bsa.value == pytest.approx(0.461, abs=0.005)
    assert rep.gr_first_order == pytest.approx(1.453e-3, abs=2e-5)
    assert rep.gr.value == pytest.approx(1.4439e-3, abs=2e-6)
    assert rep.gr.value >= gr_tangent_ratio(wineland_criterion(476), PAPER, 0.245)
    assert abs(rep.gr.value - rep.gr_first_order) <= 0.10 * rep.gr_first_order


def test_wineland_all_zero_at_unit_xi2():
    md = wineland_moment_data(476, 238.0**2 / 476, 1.0)  # xi^2 = 1 exactly
    rep = wineland_bounds(md)
    assert rep.xi2 == pytest.approx(1.0, rel=1e-12)
    assert rep.bsa.value == 0.0
    assert rep.gr.value == 0.0
    assert rep.gr_first_order == 0.0


def test_wineland_asymptotic_first_order():
    # N * GR_exact -> C^2 (1 - xi^2), deviation shrinking monotonically
    target = 0.98**2 * (1 - 0.28)
    deviations = []
    for n in (100, 1000, 10_000):
        md = wineland_moment_data_from_xi2(n, 0.28, 0.98)
        rep = wineland_bounds(md)
        deviations.append(abs(n * rep.gr.value - target))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 5e-4


def test_wineland_oat_sweep_single_minimum():
    # xi^2( mu ) decreases to a single minimum then rises (OAT phenomenology)
    xi2s = []
    for mu in np.linspace(0.0, 0.12, 13):
        md = exact_moments(squeezed_state(100, float(mu)))
        xi2s.append(wineland_xi2(md)[0])
    drops = np.diff(xi2s) < 0
    # one contiguous descending block followed by a contiguous ascending block
    switch = np.nonzero(~drops)[0]
    assert len(switch) > 0
    assert np.all(~drops[switch[0]:])
    assert min(xi2s) < 0.2


def test_wineland_monotone_in_xi2():
    values = []
    for db in np.linspace(-12, 0, 13):
        md = wineland_moment_data_from_xi2(476, 10 ** (db / 10), 0.98)
        rep = wineland_bounds(md)
        values.append((rep.bsa.value, rep.gr.value))
    bsa = [v[0] for v in values]
    gr = [v[1] for v in values]
    assert all(bsa[i] >= bsa[i + 1] - 1e-15 for i in range(len(bsa) - 1))
    assert all(gr[i] >= gr[i + 1] - 1e-15 for i in range(len(gr) - 1))
    assert bsa[-1] == 0.0 and gr[-1] == 0.0


# ---------------------------------------------------------------------------
# Giovannetti application


def split_squeezed(n=100, mu=0.0092, p=0.5):
    return split_state_moments(squeezed_state(n, mu), SplitConfig(p))


def test_g2_zero_gain_is_single_system_uncertainty():
    bp = split_squeezed()
    g2 = giovannetti_g2(bp, 0.0, 0.0)
    # reduces to Var(Jz^B) Var(Jy^B) / (<Jx^B>^2/4) >= 1 (Robertson)
    assert g2 >= 1.0 - 1e-10


def test_g2_independent_product_ensembles():
    # two independent unsplit ensembles: no entanglement, G^2 >= 1
    from entbound.moments import BipartiteMomentData

    n = 60
    md = exact_moments(css_x(n))
    cov = np.zeros((6, 6))
    cov[:3, :3] = md.covariance
    cov[3:, 3:] = md.covariance
    bp = BipartiteMomentData(n, n, md.mean, md.mean, cov)
    assert giovannetti_g2(bp, 1.0, 1.0) >= 1.0 - 1e-10
    rep = giovannetti_bounds(bp)
    assert rep.bsa.value == 0.0
    assert rep.gr.value == 0.0


def test_g2_split_squeezed_violates():
    # the violation needs opposite-sign gains: the y difference drops the
    # parent anti-squeezing and keeps only single-particle noise
    bp = split_squeezed()
    assert giovannetti_g2(bp, 1.0, -1.0) < 1.0
    # at p = 1/2 and gains (1, -1) the criterion reproduces the parent xi^2
    from entbound.bounds import wineland_xi2

    parent = exact_moments(squeezed_state(100, 0.0092))
    assert giovannetti_g2(bp, 1.0, -1.0) == pytest.approx(
        wineland_xi2(parent)[0], rel=1e-10
    )


def test_g2_unmeasured_fails():
    bp = split_squeezed()
    stripped = type(bp)(
        bp.n_a, bp.n_b, bp.mean_a, bp.mean_b, bp.covariance,
        bp.unmeasured | {(2, 5)},
    )
    with pytest.raises(UnmeasuredMomentError):
        giovannetti_g2(stripped, 1.0, 1.0)


def test_giovannetti_bounds_split_squeezed():
    bp = split_squeezed()
    rep = giovannetti_bounds(bp)
    assert rep.g2 < 1.0
    assert rep.bsa.value > 0.0
    assert rep.gr.value > 0.0
    assert rep.bsa.gains is not None
    assert rep.bsa.diagnostics["converged"] is True
    assert rep.gr.diagnostics["converged"] is True
    # regression baselines for the -3.8 dB split working point
    assert rep.g2 == pytest.approx(0.4164598841942367, rel=1e-6)
    assert rep.bsa.value == pytest.approx(0.35318013, rel=1e-5)
    assert rep.gr.value == pytest.approx(3.2852933e-3, rel=1e-5)
    # dominance over fixed gain pairs
    for gains in ((1.0, 1.0), (1.0, -1.0)):
        crit = giovannetti_criterion(bp.n_a, bp.n_b, *gains)
        assert rep.bsa.value >= bsa_from_product(crit, bp).value - 1e-9
        assert rep.gr.value >= gr_from_product(crit, bp).value - 1e-9


def test_giovannetti_certification_recompute():
    bp = split_squeezed()
    rep = giovannetti_bounds(bp)
    gz, gy = rep.gr.gains
    again = gr_tangent_ratio(
        giovannetti_criterion(bp.n_a, bp.n_b, gz, gy), bp, rep.gr.params.t
    )
    assert rep.gr.value == pytest.approx(again, abs=1e-10)
    gz, gy = rep.bsa.gains
    crit = giovannetti_criterion(bp.n_a, bp.n_b, gz, gy)
    assert rep.bsa.value == pytest.approx(bsa_from_product(crit, bp).value, abs=1e-12)


def test_giovannetti_constants():
    # n = (|gz gy| N_A + N_B)/4 and symmetric caps
    crit = giovannetti_criterion(100, 60, 2.0, 0.5)
    consts = spectral_constants(crit)
    assert consts.n == pytest.approx((1.0 * 100 + 60) / 4)
    assert crit.o1.bounds.lambda_max == pytest.approx((2.0 * 100 + 60) / 2)
    assert crit.b.bounds.lambda_min == pytest.approx(-consts.n)


def test_bound_result_validation():
    with pytest.raises(ValidationError):
        BoundResult("bsa", -0.1, 0.0, spectral_constants(wineland_criterion(4)))
    with pytest.raises(ValidationError):
        BoundResult("other", 0.1, 0.0, spectral_constants(wineland_criterion(4)))
