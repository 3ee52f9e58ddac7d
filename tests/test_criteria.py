import math

import numpy as np
import pytest

from entbound.criteria import (
    ConstantVariance,
    OperatorRole,
    ProductCriterion,
    SumCriterion,
    WitnessParams,
    bipartite_dicke_context,
    criterion_from_config,
    dicke_context,
    giovannetti_criterion,
    optimal_shifts,
    product_value,
    qubit_context,
    spectral_constants,
    sum_value,
    tangent_sum_criterion,
    variance_cap,
    wineland_criterion,
    witness_product,
    witness_sum,
)
from entbound.errors import (
    DegenerateCriterionError,
    UnmeasuredMomentError,
    ValidationError,
)
from entbound.bounds import wineland_moment_data
from entbound.operators import SpectralBounds, eigen_bounds
from entbound.simulator import (
    css_x,
    exact_moments,
    oat_evolve,
    optimal_squeezing_rotation,
    rotate_x,
)

PAPER_MOMENTS = wineland_moment_data(476, 32.0, 0.980)


def squeezed_state(n, mu):
    s = oat_evolve(css_x(n), mu)
    return rotate_x(s, optimal_squeezing_rotation(s))


def jz_role(n):
    half = n / 2
    return OperatorRole.from_mapping({"z": 1.0}, SpectralBounds(-half, half, True), "J_z")


# ---------------------------------------------------------------------------
# sum and product values


def test_single_term_sum_is_variance():
    n = 30
    state = squeezed_state(n, 0.05)
    md = exact_moments(state)
    zero_b = OperatorRole.from_mapping({}, SpectralBounds(0.0, 0.0, True), "0")
    crit = SumCriterion((jz_role(n),), zero_b)
    assert sum_value(crit, md) == pytest.approx(md.covariance[2, 2], rel=1e-12)
    assert sum_value(crit, md) >= 0


def test_wineland_tangent_hand_value():
    # Var + 4 t^2 N - 4 t <J_x> at the published working point, t = 0.245:
    # 32 + 114.2876 - 228.5752 = -82.2876 (violation, so negative)
    crit = tangent_sum_criterion(wineland_criterion(476), 0.245)
    val = sum_value(crit, PAPER_MOMENTS)
    assert val == pytest.approx(-82.2876, abs=0.1)
    assert val == pytest.approx(-82.2876, abs=1e-10)


def test_wineland_tangent_t049_positive():
    crit = tangent_sum_criterion(wineland_criterion(476), 0.49)
    val = sum_value(crit, PAPER_MOMENTS)
    assert val == pytest.approx(32.0, abs=0.2)
    assert val > 0


def test_css_tangents_nonnegative():
    # separable benchmark: every tangent must stay nonnegative
    n = 24
    md = exact_moments(css_x(n))
    for t in (0.0, 0.1, 0.245, 0.5, 1.0, 3.0):
        crit = tangent_sum_criterion(wineland_criterion(n), t)
        assert sum_value(crit, md) >= -1e-9


def test_product_value_paper_point():
    u2 = product_value(wineland_criterion(476), PAPER_MOMENTS)
    assert u2 == pytest.approx(0.2800, abs=5e-4)
    assert 10 * math.log10(u2) == pytest.approx(-5.53, abs=0.01)


def test_product_value_css_is_one():
    n = 50
    md = exact_moments(css_x(n))
    u2 = product_value(wineland_criterion(n), md)
    assert u2 == pytest.approx(1.0, abs=1e-10)


def test_product_value_degenerate_b():
    md = wineland_moment_data(476, 32.0, 0.0)
    with pytest.raises(DegenerateCriterionError):
        product_value(wineland_criterion(476), md)


def test_unmeasured_entry_fails_fast():
    md = wineland_moment_data(476, 32.0, 0.98)
    crit = giovannetti_criterion(2, 2, 1.0, 1.0)
    with pytest.raises((UnmeasuredMomentError, ValidationError)):
        product_value(crit, md)
    # the Wineland data is missing Var(J_x): a J_x variance term must fail
    n = 476
    half = n / 2
    jx = OperatorRole.from_mapping({"x": 1.0}, SpectralBounds(-half, half, True))
    crit2 = SumCriterion((jx,), jz_role(n))
    with pytest.raises(UnmeasuredMomentError):
        sum_value(crit2, md)


# ---------------------------------------------------------------------------
# spectral constants


def test_constants_wineland_n():
    consts = spectral_constants(wineland_criterion(476))
    assert consts.n == pytest.approx(238.0)


def test_constants_wineland_mt_hand_value():
    consts = spectral_constants(wineland_criterion(476), t=0.245)
    # N^2/4 + 4 t^2 N + 2 t N
    assert consts.m_t == pytest.approx(56991.5276, abs=1.0)
    assert consts.m_t == pytest.approx(476**2 / 4 + 4 * 0.245**2 * 476 + 2 * 0.245 * 476, rel=1e-12)


def test_constants_asymmetric_offset():
    b = OperatorRole.from_mapping({"z": 1.0}, SpectralBounds(-1.0, 1.0, True), "diag(1,-1)")
    crit = SumCriterion((jz_role(2),), b)
    consts = spectral_constants(crit)
    assert consts.n == pytest.approx(1.0)
    # m = v_1 - lambda_min(B) = 1 + 1
    assert consts.m == pytest.approx(variance_cap(SpectralBounds(-1, 1)) + 1.0)


def test_variance_cap_modes():
    b = SpectralBounds(-2.0, 4.0)
    assert variance_cap(b) == pytest.approx(9.0)  # ((4+2)/2)^2


def test_tangent_maps_constants():
    # m of the mapped sum criterion equals m_t of the product criterion
    pc = wineland_criterion(100)
    for t in (0.05, 0.2, 0.7):
        mapped = tangent_sum_criterion(pc, t)
        assert spectral_constants(mapped).m == pytest.approx(
            spectral_constants(pc, t=t).m_t, rel=1e-12
        )
        assert spectral_constants(mapped).n == pytest.approx(4 * t * spectral_constants(pc).n)


# ---------------------------------------------------------------------------
# witness materialization


def test_witness_expectation_identity_sum():
    # <W(s)> at s = <O> equals the criterion value, for simulator states
    n = 6
    state = squeezed_state(n, 0.2)
    md = exact_moments(state)
    ctx = dicke_context(n)
    half = n / 2
    jy = OperatorRole.from_mapping({"y": 1.0}, SpectralBounds(-half, half, True))
    jx = OperatorRole.from_mapping({"x": 1.0}, SpectralBounds(-half, half, True))
    crit = SumCriterion((jz_role(n), jy), jx, (0.5,))
    params = optimal_shifts(crit, md)
    w = witness_sum(crit, params, ctx)
    expect = np.real(np.vdot(state.amplitudes, w.entries @ state.amplitudes))
    assert expect == pytest.approx(sum_value(crit, md), abs=1e-10)


def test_witness_expectation_identity_product():
    n = 4
    state = squeezed_state(n, 0.3)
    md = exact_moments(state)
    ctx = dicke_context(n)
    crit = wineland_criterion(n)
    for t in (0.1, 0.37):
        params = optimal_shifts(crit, md)
        params = WitnessParams(params.s, t)
        w = witness_product(crit, params, ctx)
        expect = np.real(np.vdot(state.amplitudes, w.entries @ state.amplitudes))
        tangent = sum_value(tangent_sum_criterion(crit, t), md)
        assert expect == pytest.approx(tangent, abs=1e-10)


def test_witness_shift_ordering():
    # quadratic in s: the mean-centered shift never loses to an edge shift
    n = 4
    state = squeezed_state(n, 0.3)
    md = exact_moments(state)
    ctx = dicke_context(n)
    crit = wineland_criterion(n)
    center = optimal_shifts(crit, md)

    def expect_at(s):
        w = witness_product(crit, WitnessParams((s,), 0.2), ctx)
        return np.real(np.vdot(state.amplitudes, w.entries @ state.amplitudes))

    assert expect_at(center.s[0]) <= expect_at(n / 2) + 1e-12
    assert expect_at(center.s[0]) <= expect_at(-n / 2) + 1e-12


def test_witness_product_t_zero_is_psd():
    n = 4
    ctx = dicke_context(n)
    crit = wineland_criterion(n)
    w = witness_product(crit, WitnessParams((0.7,), 0.0), ctx)
    assert eigen_bounds(w).lambda_min >= -1e-12


def test_grid_shift_minimum_matches_sum_value():
    # min over s (grid + bounded scalar refinement) of <W(s)> equals the criterion value
    from scipy.optimize import minimize_scalar

    n = 5
    state = squeezed_state(n, 0.25)
    md = exact_moments(state)
    ctx = dicke_context(n)
    zero_b = OperatorRole.from_mapping({}, SpectralBounds(0.0, 0.0, True), "0")
    crit = SumCriterion((jz_role(n),), zero_b)

    def expect_at(s):
        w = witness_sum(crit, WitnessParams((s,)), ctx)
        return float(np.real(np.vdot(state.amplitudes, w.entries @ state.amplitudes)))

    grid = np.linspace(-n / 2, n / 2, 41)
    s0 = grid[int(np.argmin([expect_at(s) for s in grid]))]
    h = grid[1] - grid[0]
    best = minimize_scalar(expect_at, bounds=(s0 - h, s0 + h), method="bounded").fun
    assert best == pytest.approx(sum_value(crit, md), abs=1e-8)


def test_witness_nan_shift_rejected():
    md = PAPER_MOMENTS  # <J_z> unmeasured -> NaN shift
    crit = wineland_criterion(476)
    params = optimal_shifts(crit, md)
    assert math.isnan(params.s[0])
    with pytest.raises(ValidationError):
        witness_product(crit, WitnessParams(params.s, 0.2), dicke_context(4))


def test_bipartite_context_witness():
    crit = giovannetti_criterion(2, 2, 1.3, 0.8)
    ctx = bipartite_dicke_context(2, 2)
    params = WitnessParams((0.0, 0.0), 0.25)
    w = witness_product(crit, params, ctx)
    assert w.dim == 9
    # context dims define the separability cut
    assert ctx.dims == (3, 3)


def test_qubit_context_matches_dicke_on_symmetric_states():
    from entbound.oracle import embed_symmetric_state

    n = 4
    state = squeezed_state(n, 0.3)
    crit = wineland_criterion(n)
    params = WitnessParams((0.0,), 0.21)
    w_dicke = witness_product(crit, params, dicke_context(n))
    w_full = witness_product(crit, params, qubit_context(n))
    psi = embed_symmetric_state(state.amplitudes)
    e_full = np.real(np.vdot(psi, w_full.entries @ psi))
    e_dicke = np.real(
        np.vdot(state.amplitudes, w_dicke.entries @ state.amplitudes)
    )
    assert e_full == pytest.approx(e_dicke, abs=1e-10)


# ---------------------------------------------------------------------------
# configuration interface


def test_config_wineland():
    crit = criterion_from_config({"kind": "wineland", "n_particles": 476})
    assert isinstance(crit.o2, ConstantVariance)
    assert crit.o2.value == 476
    assert spectral_constants(crit).n == 238.0


def test_config_giovannetti():
    crit = criterion_from_config(
        {"kind": "giovannetti", "n_A": 50, "n_B": 50, "g_z": 1.0, "g_y": 1.0}
    )
    assert isinstance(crit, ProductCriterion)
    assert crit.b.bounds.lambda_max == pytest.approx(25.0)


def test_config_custom_sum():
    cfg = {
        "kind": "custom",
        "form": "sum",
        "terms": [{"coeffs": {"z": 1.0}, "lambda_min": -1.0, "lambda_max": 1.0}],
        "offset": {"coeffs": {"x": 0.5}, "lambda_min": -0.5, "lambda_max": 0.5},
        "constants": [0.25],
    }
    crit = criterion_from_config(cfg)
    assert isinstance(crit, SumCriterion)
    assert crit.constant_variance_terms == (0.25,)


def test_config_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        criterion_from_config({"kind": "other"})


def test_constant_variance_validation():
    with pytest.raises(ValidationError):
        ConstantVariance(-1.0)
    with pytest.raises(ValidationError):
        WitnessParams((0.0,), -0.5)
