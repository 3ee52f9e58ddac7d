import math

import numpy as np
import pytest
from scipy.linalg import expm

from entbound.errors import ValidationError
from entbound.moments import estimate_bipartite_moments, estimate_moments
from entbound.operators import collective_spin
from entbound.simulator import (
    SpinEnsembleState,
    SplitConfig,
    _axis_distribution,
    css_x,
    exact_moments,
    exact_raw_moments,
    oat_evolve,
    optimal_squeezing_rotation,
    rotate_x,
    sample_shots,
    split_moments,
    split_state_moments,
)

from brute_force import full_moments, full_state, split_moments_brute


def squeezed_state(n=6, mu=0.2):
    state = oat_evolve(css_x(n), mu)
    return rotate_x(state, optimal_squeezing_rotation(state))


def test_css_n1():
    s = css_x(1)
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def test_css_moments_n100():
    md = exact_moments(css_x(100))
    assert md.mean[0] == pytest.approx(50.0, abs=1e-10)
    assert md.mean[1] == pytest.approx(0.0, abs=1e-10)
    assert md.mean[2] == pytest.approx(0.0, abs=1e-10)
    assert md.covariance[1, 1] == pytest.approx(25.0, abs=1e-10)
    assert md.covariance[2, 2] == pytest.approx(25.0, abs=1e-10)


def test_css_large_n_stable():
    md = exact_moments(css_x(2000))
    assert md.mean[0] == pytest.approx(1000.0, rel=1e-12)


def test_oat_identity_at_zero():
    s = css_x(8)
    assert np.allclose(oat_evolve(s, 0.0).amplitudes, s.amplitudes)


def test_oat_preserves_norm():
    rng = np.random.default_rng(0)
    for mu in rng.uniform(0, 2, size=5):
        s = oat_evolve(css_x(12), float(mu))
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_rotation_identity_and_pi():
    s = squeezed_state(8, 0.15)
    assert np.allclose(rotate_x(s, 0.0).amplitudes, s.amplitudes, atol=1e-12)
    before = exact_moments(s)
    after = exact_moments(rotate_x(s, math.pi))
    assert after.mean[1] == pytest.approx(-before.mean[1], abs=1e-9)
    assert after.mean[2] == pytest.approx(-before.mean[2], abs=1e-9)
    assert after.mean[0] == pytest.approx(before.mean[0], abs=1e-9)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return SpinEnsembleState(n, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_rotate_x_matches_dense_expm(n):
    jx = collective_spin(n, "x").entries
    state = random_state(n, n)
    for theta in (0.0, 0.3, -1.1, math.pi / 2, 2.9):
        dense = expm(-1j * theta * jx) @ state.amplitudes
        assert np.allclose(rotate_x(state, theta).amplitudes, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 7, 40])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_axis_distribution_matches_dense_eigh(n, axis):
    w, v = np.linalg.eigh(collective_spin(n, axis).entries)
    # a squeezed state and a generic complex state exercise the y phases
    for state in (squeezed_state(n, 0.2), random_state(n, 7 * n)):
        m, probs = _axis_distribution(state, axis)
        assert np.array_equal(m, np.arange(n + 1) - n / 2)
        assert np.allclose(m, w, rtol=0, atol=1e-10)
        dense = np.abs(v.conj().T @ state.amplitudes) ** 2
        assert np.allclose(probs, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 6, 33, 1000])
def test_axis_eigenvalues_round_to_dicke_ladder(n):
    m, _ = _axis_distribution(css_x(n), "x")
    assert np.array_equal(m, np.arange(n + 1) - n / 2)


def test_optimal_rotation_grid_dominance():
    state = oat_evolve(css_x(40), 0.03)
    theta = optimal_squeezing_rotation(state)
    best = exact_moments(rotate_x(state, theta)).covariance[2, 2]
    # the minimum is the minor eigenvalue of the (y, z) covariance block
    cov = exact_moments(state).covariance
    assert best == pytest.approx(np.linalg.eigvalsh(cov[1:, 1:])[0], rel=1e-10)
    for k in range(64):
        angle = k * math.pi / 64
        assert best <= exact_moments(rotate_x(state, angle)).covariance[2, 2] + 1e-12


def test_oat_squeezes_n100():
    from entbound.bounds import wineland_xi2

    xi2, _ = wineland_xi2(exact_moments(squeezed_state(100, 0.02)))
    assert xi2 < 1.0


def test_xi2_continuous_and_one_at_zero():
    from entbound.bounds import wineland_xi2

    xi2_0, _ = wineland_xi2(exact_moments(squeezed_state(30, 0.0)))
    assert xi2_0 == pytest.approx(1.0, abs=1e-10)
    prev = xi2_0
    for mu in (0.002, 0.004, 0.006):
        xi2, _ = wineland_xi2(exact_moments(squeezed_state(30, mu)))
        assert abs(xi2 - prev) < 0.2
        prev = xi2


@pytest.mark.parametrize("n,mu", [(4, 0.3), (6, 0.17)])
def test_exact_moments_vs_full_tensor(n, mu):
    state = squeezed_state(n, mu)
    md = exact_moments(state)
    psi = full_state(state.amplitudes)
    mean_b, cov_b = full_moments(psi, n)
    assert np.allclose(md.mean, mean_b, atol=1e-10)
    assert np.allclose(md.covariance, cov_b, atol=1e-10)


def test_generated_states_satisfy_robertson():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        state = rotate_x(oat_evolve(css_x(n), float(rng.uniform(0, 1))), float(rng.uniform(0, math.pi)))
        md = exact_moments(state)
        assert np.linalg.norm(md.mean) <= n / 2 + 1e-9
        pairs = (((1, 1), (2, 2), 0), ((0, 0), (2, 2), 1), ((0, 0), (1, 1), 2))
        for (i, i2), (j, j2), k in pairs:
            lhs = md.covariance[i, i2] * md.covariance[j, j2]
            assert lhs >= md.mean[k] ** 2 / 4 - 1e-9


def test_split_p_to_one_limit():
    state = squeezed_state(6, 0.2)
    md = exact_moments(state)
    bp = split_state_moments(state, SplitConfig(1 - 1e-12))
    assert np.allclose(bp.mean_a, md.mean, atol=1e-9)
    assert np.allclose(bp.covariance[:3, :3], md.covariance, atol=1e-9)
    assert np.allclose(bp.mean_b, 0.0, atol=1e-9)


def test_split_css_half():
    n = 4
    bp = split_state_moments(css_x(n), SplitConfig(0.5))
    assert bp.cov_value(2, 2) == pytest.approx(n / 8, abs=1e-12)
    assert bp.cov_value(2, 5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,mu", [(4, 0.25), (6, 0.17)])
@pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
def test_split_moments_vs_brute_force(n, mu, p):
    state = squeezed_state(n, mu)
    bp = split_state_moments(state, SplitConfig(p))
    psi = full_state(state.amplitudes)
    _, mean_b, cov_b = split_moments_brute(psi, n, p)
    assert np.allclose(bp.mean, mean_b, atol=1e-10)
    assert np.allclose(bp.covariance, cov_b, atol=1e-10)


def test_split_config_validation():
    with pytest.raises(ValidationError):
        SplitConfig(0.0)
    with pytest.raises(ValidationError):
        SplitConfig(1.0)


def test_sample_shots_css_statistics():
    n = 64
    shots = sample_shots(css_x(n), settings=("z",), n_shots=10_000, seed=5)
    md = estimate_moments(shots)
    var = md.cov_value(2, 2)
    se = (n / 4) * math.sqrt(2 / (10_000 - 1))
    assert abs(var - n / 4) <= 3 * se
    assert md.n_particles == pytest.approx(n)


def test_sample_shots_deterministic():
    state = squeezed_state(20, 0.1)
    a = sample_shots(state, settings=("x", "z"), n_shots=50, seed=7)
    b = sample_shots(state, settings=("x", "z"), n_shots=50, seed=7)
    assert a == b
    c = sample_shots(state, settings=("x", "z"), n_shots=50, seed=8)
    assert a != c


def test_sample_estimate_roundtrip_within_3se():
    state = squeezed_state(50, 0.05)
    exact = exact_moments(state)
    k = 10_000
    shots = sample_shots(state, settings=("x", "y", "z"), n_shots=k, seed=11)
    est = estimate_moments(shots)
    for i in range(3):
        se_mean = math.sqrt(exact.covariance[i, i] / k)
        assert abs(est.mean[i] - exact.mean[i]) <= 3 * se_mean + 1e-9
        se_var = exact.covariance[i, i] * math.sqrt(2 / (k - 1))
        assert abs(est.covariance[i, i] - exact.covariance[i, i]) <= 3 * se_var + 1e-9


def test_convergence_rate_with_shots():
    # standard error scaling ~ 1/sqrt(shots)
    state = css_x(32)
    exact = exact_moments(state)
    errs = []
    for k in (100, 1000, 10_000):
        reps = []
        for seed in range(8):
            shots = sample_shots(state, settings=("z",), n_shots=k, seed=seed)
            reps.append(estimate_moments(shots).mean[2] - exact.mean[2])
        errs.append(np.sqrt(np.mean(np.square(reps))))
    assert errs[0] > errs[2]
    # two decades of shots shrink the RMS error by roughly 10x
    assert errs[0] / errs[2] > 3.0


def test_bipartite_sampling_matches_split_predictions():
    state = squeezed_state(40, 0.06)
    bp = split_state_moments(state, SplitConfig(0.5))
    k = 8000
    shots = sample_shots(bp, settings=("x", "y", "z"), n_shots=k, seed=3)
    est = estimate_bipartite_moments(shots)
    for axis in range(3):
        ia, ib = axis, axis + 3
        for i, j in ((ia, ia), (ib, ib), (ia, ib)):
            target = bp.cov_value(i, j)
            scale = math.sqrt(bp.cov_value(i, i) * bp.cov_value(j, j))
            se = scale * math.sqrt(2 / (k - 1))
            # rounding to integer counts adds at most ~1/12 per count variance
            assert abs(est.cov_value(i, j) - target) <= 3 * se + 0.35


def test_moment_data_shots_keep_atom_total_unbiased():
    # y/z means vanish, so |J| << N/2 and no shot needs a total above N
    n = 476
    md = exact_moments(squeezed_state(n, 0.005))
    est = estimate_moments(sample_shots(md, ("y", "z"), 20_000, seed=4))
    assert est.n_particles == pytest.approx(n, abs=0.05)
    bp = split_state_moments(squeezed_state(n, 0.005), SplitConfig(0.5))
    est_bp = estimate_bipartite_moments(sample_shots(bp, ("y", "z"), 20_000, seed=4))
    assert est_bp.n_a == pytest.approx(n / 2, abs=0.05)
    assert est_bp.n_b == pytest.approx(n / 2, abs=0.05)


def test_sample_shots_detection_noise_inflates_variance():
    n = 64
    clean = estimate_moments(sample_shots(css_x(n), ("z",), 4000, seed=1))
    noisy = estimate_moments(
        sample_shots(css_x(n), ("z",), 4000, seed=1, detection_sigma=4.0)
    )
    assert noisy.cov_value(2, 2) > clean.cov_value(2, 2) + 2.0


def test_state_validation():
    with pytest.raises(ValidationError):
        SpinEnsembleState(3, np.array([1.0, 0.0, 0.0]))  # wrong length
    with pytest.raises(ValidationError):
        SpinEnsembleState(2, np.array([1.0, 1.0, 0.0]))  # not normalized
