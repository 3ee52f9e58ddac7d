"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line on success (pytest -s shows them); any
assertion failure marks the criterion failed.
"""

import math
import time

import numpy as np
import pytest

from entbound.bounds import (
    bsa_from_product,
    giovannetti_bounds,
    gr_from_product,
    gr_tangent_ratio,
    wineland_bounds,
    wineland_moment_data,
    wineland_moment_data_from_xi2,
)
from entbound.criteria import (
    WitnessParams,
    bipartite_qubit_context,
    giovannetti_criterion,
    optimal_shifts,
    qubit_context,
    spectral_constants,
    wineland_criterion,
    witness_product,
)
from entbound.moments import MomentData, estimate_bipartite_moments, estimate_moments
from entbound.operators import collective_spin_embedded
from entbound.oracle import (
    DensityMatrix,
    bsa_upper,
    embed_symmetric_state,
    gr_ppt,
    membership_check,
    min_over_product_states,
    schmidt_robustness,
)
from entbound.simulator import (
    SplitConfig,
    css_x,
    exact_moments,
    oat_evolve,
    optimal_squeezing_rotation,
    rotate_x,
    sample_shots,
    split_state_moments,
)

from brute_force import full_moments, full_state, split_moments_brute

PAPER = wineland_moment_data(476, 32.0, 0.980)


def squeezed_state(n, mu):
    s = oat_evolve(css_x(n), mu)
    return rotate_x(s, optimal_squeezing_rotation(s))


def two_qubit_density(state_amplitudes, mix):
    psi = embed_symmetric_state(state_amplitudes)
    rho = (1 - mix) * np.outer(psi, psi.conj()) + mix * np.eye(4) / 4
    return DensityMatrix(rho)


def moments_of_density(rho):
    ops = [collective_spin_embedded(2, a).entries for a in "xyz"]
    mean = np.array([np.real(np.trace(rho.entries @ op)) for op in ops])
    cov = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            cov[i, j] = np.real(np.trace(rho.entries @ sym)) - mean[i] * mean[j]
    return MomentData(2.0, mean, cov)


def test_criterion_1_paper_number_regression():
    start = time.perf_counter()
    rep = wineland_bounds(PAPER)
    elapsed = time.perf_counter() - start

    assert rep.xi2 == pytest.approx(0.280, abs=1e-3)
    assert rep.xi2_db == pytest.approx(-5.53, abs=0.01)
    assert rep.bsa.value == pytest.approx(0.461, abs=5e-3)
    assert rep.gr_first_order == pytest.approx(1.453e-3, abs=2e-5)
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: xi2={rep.xi2:.4f} ({rep.xi2_db:.2f} dB), "
        f"BSA={rep.bsa.value:.4f}, GR1={rep.gr_first_order:.4e} in {elapsed * 1e3:.0f} ms"
    )


def test_criterion_2_internal_consistency():
    rep = wineland_bounds(PAPER)
    fixed_t = gr_tangent_ratio(wineland_criterion(476), PAPER, 0.245)
    assert fixed_t == pytest.approx(1.444e-3, abs=1e-6)
    assert rep.gr.value >= fixed_t
    assert abs(rep.gr.value - rep.gr_first_order) <= 0.10 * rep.gr_first_order

    target = 0.98**2 * (1 - 0.28)
    deviations = []
    for n in (100, 1000, 10_000):
        r = wineland_bounds(wineland_moment_data_from_xi2(n, 0.28, 0.98))
        deviations.append(abs(n * r.gr.value - target))
    assert deviations[0] > deviations[1] > deviations[2]
    print(
        f"\nPASS criterion 2: GR={rep.gr.value:.6e} >= fixed-t {fixed_t:.6e}, "
        f"N*GR deviations {[f'{d:.2e}' for d in deviations]}"
    )


def _shipped_configurations():
    """(witness, cut dims, bsa normalizer, gr normalizer) at oracle scale."""
    configs = []
    for n in (4, 6):
        state = squeezed_state(n, 0.3)
        md = exact_moments(state)
        crit = wineland_criterion(n)
        t = math.sqrt(md.covariance[2, 2] / (4 * n))
        params = WitnessParams(optimal_shifts(crit, md).s, t)
        w = witness_product(crit, params, qubit_context(n))
        consts = spectral_constants(crit, t=t)
        configs.append((f"wineland N={n}", w, (2,) * n, 4 * t * consts.n, consts.m_t))
    for gains in ((1.0, -1.0), (1.0, 1.0)):
        n_a = n_b = 2
        state = squeezed_state(n_a + n_b, 0.4)
        bp = split_state_moments(state, SplitConfig(0.5))
        crit = giovannetti_criterion(n_a, n_b, *gains)
        v1 = crit.o1.variance(bp)
        v2 = crit.o2.variance(bp)
        t = math.sqrt(v1 / (4 * v2)) if v2 > 0 else 0.25
        params = WitnessParams(optimal_shifts(crit, bp).s, t)
        ctx = bipartite_qubit_context(n_a, n_b)
        w = witness_product(crit, params, ctx)
        consts = spectral_constants(crit, t=t)
        configs.append(
            (f"giovannetti g={gains}", w, ctx.dims, 4 * t * consts.n, consts.m_t)
        )
    return configs


def test_criterion_3_witness_validity():
    worst = math.inf
    for name, w, dims, bsa_norm, gr_norm in _shipped_configurations():
        val = min_over_product_states(w, dims, n_starts=10_000, seed=0)
        worst = min(worst, val)
        assert val >= -1e-6, f"{name}: product-state minimum {val}"
        assert membership_check(w, bsa_norm, sign=1, tol=1e-9), f"{name}: BSA membership"
        assert membership_check(w, gr_norm, sign=-1, tol=1e-9), f"{name}: GR membership"
    print(f"\nPASS criterion 3: 4 configurations, worst product-state minimum {worst:.2e}")


def test_criterion_4_soundness_sandwich():
    rng = np.random.default_rng(2024)
    checked = 0
    max_gr_gap = -math.inf
    # squeezed two-qubit family (pure and mixed)
    for _ in range(30):
        mu = float(rng.uniform(0.1, 1.3))
        mix = float(rng.choice([0.0, rng.uniform(0.0, 0.5)]))
        rho = two_qubit_density(squeezed_state(2, mu).amplitudes, mix)
        md = moments_of_density(rho)
        crit = wineland_criterion(2)
        bsa = bsa_from_product(crit, md).value
        gr = gr_from_product(crit, md).value
        upper = bsa_upper(rho, (2, 2), seed=checked, nm_max_fev=300, polish=False)
        ppt = gr_ppt(rho, (2, 2))
        assert bsa <= upper + 1e-6, f"BSA {bsa} > oracle {upper} (mu={mu}, mix={mix})"
        assert gr <= ppt + 1e-6, f"GR {gr} > oracle {ppt} (mu={mu}, mix={mix})"
        max_gr_gap = max(max_gr_gap, gr - ppt)
        checked += 1
    # random mixed states
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho_m = g @ g.conj().T
        rho = DensityMatrix(rho_m / np.trace(rho_m).real)
        md = moments_of_density(rho)
        crit = wineland_criterion(2)
        bsa = bsa_from_product(crit, md).value
        gr = gr_from_product(crit, md).value
        upper = bsa_upper(rho, (2, 2), seed=checked, nm_max_fev=300, polish=False)
        ppt = gr_ppt(rho, (2, 2))
        assert bsa <= upper + 1e-6
        assert gr <= ppt + 1e-6
        checked += 1

    bell = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2
    bell_gr = gr_ppt(DensityMatrix(bell), (2, 2))
    assert bell_gr == pytest.approx(1.0, abs=1e-6)
    pure = two_qubit_density(squeezed_state(2, 0.6).amplitudes, 0.0)
    pure_upper = bsa_upper(pure, (2, 2), seed=0)
    assert pure_upper == pytest.approx(1.0, abs=1e-9)
    assert bsa_from_product(wineland_criterion(2), moments_of_density(pure)).value <= 1.0
    print(
        f"\nPASS criterion 4: {checked} states sandwiched, gr_ppt(Bell)={bell_gr:.8f}, "
        f"pure-state bsa_upper={pure_upper:.8f}"
    )


def test_criterion_5_simulator_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    for n, mu in ((4, 0.25), (6, 0.17)):
        state = squeezed_state(n, mu)
        md = exact_moments(state)
        psi = full_state(state.amplitudes)
        mean_b, cov_b = full_moments(psi, n)
        assert np.max(np.abs(md.mean - mean_b)) < 1e-10
        assert np.max(np.abs(md.covariance - cov_b)) < 1e-10
        for p in (0.25, 0.5, 0.75):
            bp = split_state_moments(state, SplitConfig(p))
            _, mean_s, cov_s = split_moments_brute(psi, n, p)
            assert np.max(np.abs(bp.mean - mean_s)) < 1e-10
            assert np.max(np.abs(bp.covariance - cov_s)) < 1e-10
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nPASS criterion 5: {cases} split cases vs full tensor in {elapsed:.1f} s")


def test_criterion_6_end_to_end_pipeline():
    n, mu, shots_per_setting = 100, 0.0092, 10_000
    state = squeezed_state(n, mu)
    exact = exact_moments(state)
    exact_rep = wineland_bounds(exact)

    shots = sample_shots(state, ("x", "y", "z"), shots_per_setting, seed=2718)
    est = estimate_moments(shots)
    est_rep = wineland_bounds(est)

    # moment-level agreement within 3 standard errors
    k = shots_per_setting
    for i in range(3):
        se_mean = math.sqrt(exact.covariance[i, i] / k)
        assert abs(est.mean[i] - exact.mean[i]) <= 3 * se_mean + 1e-9
        se_var = exact.covariance[i, i] * math.sqrt(2 / (k - 1))
        assert abs(est.covariance[i, i] - exact.covariance[i, i]) <= 3 * se_var + 0.30

    # bound-level agreement within 3 propagated standard errors (delta method,
    # numeric Jacobian of each bound in (Var(J_z), <J_x>))
    se_var_z = exact.covariance[2, 2] * math.sqrt(2 / (k - 1))
    se_mean_x = math.sqrt(exact.covariance[0, 0] / k)

    def bounds_at(var_z, mean_x):
        rep = wineland_bounds(wineland_moment_data(n, var_z, mean_x / (n / 2)))
        return np.array([rep.bsa.value, rep.gr.value])

    base = bounds_at(exact.covariance[2, 2], exact.mean[0])
    dv = 1e-4
    jac_var = (bounds_at(exact.covariance[2, 2] + dv, exact.mean[0]) - base) / dv
    jac_mean = (bounds_at(exact.covariance[2, 2], exact.mean[0] + dv) - base) / dv
    se_bounds = np.sqrt((jac_var * se_var_z) ** 2 + (jac_mean * se_mean_x) ** 2)
    est_vals = np.array([est_rep.bsa.value, est_rep.gr.value])
    exact_vals = np.array([exact_rep.bsa.value, exact_rep.gr.value])
    assert np.all(np.abs(est_vals - exact_vals) <= 3 * se_bounds + 1e-12)

    # split pipeline: exact split moments and a sampled-shots path both certify
    bp = split_state_moments(state, SplitConfig(0.5))
    split_rep = giovannetti_bounds(bp)
    assert split_rep.g2 < 1.0
    assert split_rep.bsa.value > 0.0
    assert split_rep.gr.value > 0.0

    split_shots = sample_shots(bp, ("x", "y", "z"), shots_per_setting, seed=577)
    split_est = estimate_bipartite_moments(split_shots)
    split_est_rep = giovannetti_bounds(split_est)
    assert split_est_rep.g2 < 1.0
    assert split_est_rep.bsa.value > 0.0
    assert split_est_rep.gr.value > 0.0
    print(
        f"\nPASS criterion 6: estimated BSA={est_rep.bsa.value:.4f} "
        f"(exact {exact_rep.bsa.value:.4f}), split G2={split_est_rep.g2:.4f}, "
        f"split BSA={split_est_rep.bsa.value:.4f}, split GR={split_est_rep.gr.value:.2e}"
    )


def test_criterion_7_figure_shape_reproduction():
    n_values = (100, 476, 1000)
    dbs = np.linspace(-12.0, 0.0, 25)
    contrast = 0.98
    curves = {}
    for n in n_values:
        rows = []
        for db in dbs:
            rep = wineland_bounds(wineland_moment_data_from_xi2(n, 10 ** (db / 10), contrast))
            rows.append((rep.bsa.value, rep.gr.value))
        curves[n] = rows
        bsa = [r[0] for r in rows]
        gr = [r[1] for r in rows]
        assert all(bsa[i] >= bsa[i + 1] - 1e-15 for i in range(len(bsa) - 1))
        assert all(gr[i] >= gr[i + 1] - 1e-15 for i in range(len(gr) - 1))
        assert bsa[0] > 0 and gr[0] > 0
        assert bsa[-1] == 0.0 and gr[-1] == 0.0

    # the (476, -5.5 dB) grid row reproduces the criterion-1 command
    db = -5.5
    rep = wineland_bounds(wineland_moment_data_from_xi2(476, 10 ** (db / 10), contrast))
    direct = wineland_bounds(
        wineland_moment_data(476, 10 ** (db / 10) * (0.98 * 238) ** 2 / 476, contrast)
    )
    assert rep.bsa.value == pytest.approx(direct.bsa.value, rel=1e-12)
    assert rep.gr.value == pytest.approx(direct.gr.value, rel=1e-12)
    # and sits within a percent of the measured working point's bounds
    assert rep.bsa.value == pytest.approx(0.461, abs=0.01)
    print(
        f"\nPASS criterion 7: monotone bound curves for N={n_values}, "
        f"row(476, -5.5 dB): BSA={rep.bsa.value:.4f}, GR={rep.gr.value:.4e}"
    )
