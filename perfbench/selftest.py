"""Self-tests of the benchmark's correctness checks.

Each case feeds one check of `checks.py` a correct value, which must pass,
and a perturbed value, which must raise CheckError. Run from the
repository root (a few seconds, not part of the repository's test suite):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import entbound as eb  # noqa: E402
from entbound.bounds import gr_tangent_ratio  # noqa: E402

import checks  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def passes_then_fails(good, bad):
    good()
    try:
        bad()
    except checks.CheckError:
        return
    raise AssertionError("perturbed value was accepted")


@case
def kitagawa_ueda_variance_off_by_1_percent():
    n, mu = 100, 0.02
    state = eb.oat_evolve(eb.css_x(n), mu)
    md = eb.exact_moments(eb.rotate_x(state, eb.optimal_squeezing_rotation(state)))
    jx, var = md.mean[0], md.covariance[2, 2]
    passes_then_fails(lambda: checks.check_kitagawa_ueda(n, mu, jx, var),
                      lambda: checks.check_kitagawa_ueda(n, mu, jx, var * 1.01))
    passes_then_fails(lambda: checks.check_kitagawa_ueda(n, mu, jx, var),
                      lambda: checks.check_kitagawa_ueda(n, mu, jx * (1 + 1e-6), var))


def _single_shots(n_shots: int, seed: int):
    rng = np.random.default_rng(seed)
    shots, sid = [], 0
    for axis, (lo, hi) in zip(checks.AXES, ((40, 50), (-10, 10), (-3, 3))):
        for d in rng.integers(lo, hi + 1, size=n_shots):
            shots.append(eb.ShotRecord(sid, axis, "ALL", int(50 + d), int(50 - d)))
            sid += 1
    return shots


@case
def estimate_recompute_variance_off_by_1_percent():
    shots = _single_shots(2000, 1)
    est = eb.estimate_moments(shots)
    stats = checks.single_shot_stats(
        checks.shot_columns((s.shot_id, s.setting, s.region, s.n1, s.n2) for s in shots))
    bad_cov = np.array(est.covariance)
    bad_cov[2, 2] *= 1.01
    passes_then_fails(
        lambda: checks.check_single_estimate(stats, est.mean, est.covariance, est.n_particles),
        lambda: checks.check_single_estimate(stats, est.mean, bad_cov, est.n_particles))
    bad_mean = np.array(est.mean)
    bad_mean[0] += 1e-6
    passes_then_fails(
        lambda: checks.check_single_estimate(stats, est.mean, est.covariance, est.n_particles),
        lambda: checks.check_single_estimate(stats, bad_mean, est.covariance, est.n_particles))


def _gaussian_columns(n_shots: int, mean, cov, seed: int, bipartite: bool):
    rng = np.random.default_rng(seed)
    cols = {k: [] for k in ("shot_id", "setting", "region", "n1", "n2")}
    for i, axis in enumerate(checks.AXES):
        if bipartite:
            idx = [i, i + 3]
            vals = rng.multivariate_normal(np.asarray(mean)[idx], np.asarray(cov)[np.ix_(idx, idx)],
                                           size=n_shots)
            ids = np.arange(n_shots) + i * n_shots
            for r, k in (("A", 0), ("B", 1)):
                cols["shot_id"].append(ids)
                cols["region"].append(np.full(n_shots, r))
                cols["setting"].append(np.full(n_shots, axis))
                cols["n1"].append(100 + vals[:, k])
                cols["n2"].append(100 - vals[:, k])
        else:
            v = rng.normal(mean[i], math.sqrt(cov[i][i]), size=n_shots)
            cols["shot_id"].append(np.arange(n_shots) + i * n_shots)
            cols["region"].append(np.full(n_shots, "ALL"))
            cols["setting"].append(np.full(n_shots, axis))
            cols["n1"].append(100 + v)
            cols["n2"].append(100 - v)
    return {k: np.concatenate(v) for k, v in cols.items()}


@case
def sampling_variance_off_by_2_percent():
    mean = [40.0, 0.0, 0.0]
    cov = np.diag([2.0, 30.0, 4.0])
    stats = checks.single_shot_stats(_gaussian_columns(1_000_000, mean, cov, 2, False))
    bad = cov.copy()
    bad[1, 1] *= 1.02
    passes_then_fails(lambda: checks.check_single_sampling(stats, mean, cov),
                      lambda: checks.check_single_sampling(stats, mean, bad))


def _bipartite_moments():
    mean = np.array([20.0, 0.0, 0.0, 20.0, 0.0, 0.0])
    cov = np.diag([1.0, 8.0, 3.0, 1.0, 8.0, 3.0])
    for i, c in ((0, 0.2), (1, 2.0), (2, -1.5)):
        cov[i, i + 3] = cov[i + 3, i] = c
    return mean, cov


@case
def bipartite_sampling_cross_covariance_off():
    mean, cov = _bipartite_moments()
    stats = checks.bipartite_shot_stats(_gaussian_columns(400_000, mean, cov, 3, True))
    bad = cov.copy()
    bad[2, 5] = bad[5, 2] = cov[2, 5] * 1.1
    passes_then_fails(
        lambda: checks.check_bipartite_sampling(stats, mean[:3], mean[3:], cov),
        lambda: checks.check_bipartite_sampling(stats, mean[:3], mean[3:], bad))


@case
def bipartite_estimate_recompute_covariance_off_by_1_percent():
    mean, cov = _bipartite_moments()
    md = eb.BipartiteMomentData(40.0, 40.0, mean[:3], mean[3:], cov)
    shots = eb.sample_shots(md, n_shots=2000, seed=4)
    est = eb.estimate_bipartite_moments(shots)
    stats = checks.bipartite_shot_stats(
        checks.shot_columns((s.shot_id, s.setting, s.region, s.n1, s.n2) for s in shots))
    bad = np.array(est.covariance)
    bad[1, 4] *= 1.01
    passes_then_fails(
        lambda: checks.check_bipartite_estimate(stats, est.mean_a, est.mean_b, est.covariance),
        lambda: checks.check_bipartite_estimate(stats, est.mean_a, est.mean_b, bad))


@case
def shuffled_estimate_one_ulp_off():
    mean, cov = np.array([1.0, np.nan, 2.0]), np.eye(3)
    bad = mean.copy()
    bad[2] = np.nextafter(bad[2], 3.0)
    passes_then_fails(lambda: checks.check_shuffle_invariant(mean, cov, mean.copy(), cov.copy()),
                      lambda: checks.check_shuffle_invariant(mean, cov, bad, cov))


@case
def wineland_bsa_and_gr_off():
    md = eb.wineland_moment_data(476, 32.0, 0.980)
    rep = eb.wineland_bounds(md)
    jx = md.mean_value(0)
    crit = eb.wineland_criterion(476)
    ratios = [gr_tangent_ratio(crit, md, t) for t in np.linspace(0, jx / 476, 41)[1:]]
    bsa, gr = rep.bsa.value, rep.gr.value

    def run(b, g):
        return lambda: checks.check_wineland(476.0, jx, 32.0, b, g, ratios)

    passes_then_fails(run(bsa, gr), run(bsa * (1 + 1e-6), gr))
    passes_then_fails(run(bsa, gr), run(bsa, max(ratios) * (1 - 1e-6)))


@case
def giovannetti_g2_and_bounds_off():
    mean, cov = _bipartite_moments()
    g2 = checks.giovannetti_g2(cov, mean[:3], mean[3:], 1.0, -1.0)
    assert g2 < 1.0

    def run(g2_rep, bsa, gr):
        return lambda: checks.check_giovannetti(g2_rep, g2, bsa, gr, [0.1, 0.2], [1e-3, 2e-3])

    passes_then_fails(run(g2, 0.3, 3e-3), run(g2 * (1 + 1e-6), 0.3, 3e-3))
    passes_then_fails(run(g2, 0.3, 3e-3), run(g2, 0.2 - 1e-4, 3e-3))
    passes_then_fails(run(g2, 0.3, 3e-3), run(g2, 0.3, 0.0))


@case
def werner_and_pure_gr_off_by_1e4():
    p = 0.8
    passes_then_fails(
        lambda: checks.check_value(0.7 + 1e-8, checks.werner_gr(p), 1e-6, "Werner"),
        lambda: checks.check_value(0.7 + 1e-4, checks.werner_gr(p), 1e-6, "Werner"))
    psi = np.array([0.8, 0.1, 0.2j, 0.5])
    psi /= np.linalg.norm(psi)
    ref = eb.schmidt_robustness(psi, (2, 2))
    passes_then_fails(lambda: checks.check_value(ref, checks.pure_gr(psi), 1e-6, "pure"),
                      lambda: checks.check_value(ref + 1e-4, checks.pure_gr(psi), 1e-6, "pure"))


@case
def sandwich_bound_above_oracle():
    passes_then_fails(lambda: checks.check_sandwich(0.4, 0.1, 0.5, 0.2),
                      lambda: checks.check_sandwich(0.5 + 1e-4, 0.1, 0.5, 0.2))
    passes_then_fails(lambda: checks.check_sandwich(0.4, 0.2, 0.5, 0.2),
                      lambda: checks.check_sandwich(0.4, 0.2 + 1e-4, 0.5, 0.2))


@case
def witness_minimum_negative():
    passes_then_fails(lambda: checks.check_witness_minimum(-1e-9),
                      lambda: checks.check_witness_minimum(-1e-4))


@case
def run_checks_one_failed():
    passes_then_fails(lambda: checks.check_run_checks([("a", True), ("b", True)]),
                      lambda: checks.check_run_checks([("a", True), ("b", False)]))


@case
def two_qubit_moments_match_entbound():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    mean, cov = checks.two_qubit_spin_moments(rho)
    ops = [eb.collective_spin_embedded(2, a).entries for a in "xyz"]
    ref = np.array([np.real(np.trace(rho @ op)) for op in ops])
    assert np.allclose(mean, ref, atol=1e-14), (mean, ref)
    assert np.allclose(cov, cov.T) and np.all(np.linalg.eigvalsh(cov) > -1e-12)


def main() -> int:
    failed = 0
    for fn in CASES:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {fn.__name__}: {exc}")
        else:
            print(f"ok   {fn.__name__}")
    print(f"{len(CASES) - failed}/{len(CASES)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
