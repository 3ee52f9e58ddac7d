"""Correctness checks that the benchmark computes apart from entbound.

Every check compares a program output with a closed form, a plain numpy
recomputation or a property the method must have. Each raises CheckError
with a short reason; `selftest.py` feeds each one a perturbed value and
expects the raise. Only numpy is imported here, so a check never reuses
the code it checks.
"""

from __future__ import annotations

import math

import numpy as np

AXES = ("x", "y", "z")

# Sampled moments must lie within this many standard errors of the exact
# ones; at 5e4-1e5 shots and at most 21 compared entries per round, a false
# alarm at 6 sigma has probability below 1e-7.
SE_LIMIT = 6.0
RECOMPUTE_RTOL = 1e-9


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def close(a: float, b: float, rtol: float, what: str, atol: float = 0.0) -> None:
    require(
        abs(a - b) <= atol + rtol * max(abs(a), abs(b)),
        f"{what}: {a!r} vs {b!r} (rtol {rtol:g})",
    )


# ---------------------------------------------------------------------------
# One-axis twisting closed form


def kitagawa_ueda(n: int, mu: float) -> tuple[float, float]:
    """<J_x> and the minimal variance orthogonal to it after exp(-i mu J_z^2).

    Kitagawa & Ueda, PRA 47, 5138 (1993), for H = chi J_z^2 acting on the
    coherent state along x, with mu_KU = 2 chi t = 2 mu and S = N/2:
        <J_x> = S cos^(2S-1)(mu_KU/2)
        V_-   = (S/2) [1 + (2S - 1)/4 (A - sqrt(A^2 + B^2))]
        A = 1 - cos^(2S-2)(mu_KU),  B = 4 sin(mu_KU/2) cos^(2S-2)(mu_KU/2).
    """
    s = n / 2
    m = 2.0 * mu
    jx = s * math.cos(m / 2) ** (n - 1)
    a = 1.0 - math.cos(m) ** (n - 2)
    b = 4.0 * math.sin(m / 2) * math.cos(m / 2) ** (n - 2)
    v_min = (s / 2) * (1.0 + 0.25 * (2 * s - 1) * (a - math.hypot(a, b)))
    return jx, v_min


def check_kitagawa_ueda(n: int, mu: float, jx: float, var_jz: float, rtol: float = 1e-9):
    """Exact <J_x> and the rotated Var(J_z) against the closed form."""
    jx_ku, v_ku = kitagawa_ueda(n, mu)
    close(jx, jx_ku, rtol, f"<J_x> at N={n}, mu={mu:.6g} vs Kitagawa-Ueda")
    close(var_jz, v_ku, rtol, f"min Var(J_z) at N={n}, mu={mu:.6g} vs Kitagawa-Ueda")


# ---------------------------------------------------------------------------
# Shot columns and their moments


def shot_columns(rows) -> dict:
    """Columns from (shot_id, setting, region, n1, n2) rows, in any order."""
    rows = list(rows)
    require(len(rows) > 0, "no shot rows")
    shot_id = np.array([int(r[0]) for r in rows])
    setting = np.array([str(r[1]) for r in rows])
    region = np.array([str(r[2]) for r in rows])
    n1 = np.array([int(r[3]) for r in rows], dtype=float)
    n2 = np.array([int(r[4]) for r in rows], dtype=float)
    return {"shot_id": shot_id, "setting": setting, "region": region, "n1": n1, "n2": n2}


def read_shots_csv(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        require(header == ["shot_id", "setting", "region", "n1", "n2"], f"header {header}")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return shot_columns(rows)


def _stats(a: np.ndarray) -> dict:
    mean = float(np.mean(a))
    dev = a - mean
    var = float(np.sum(dev**2) / (len(a) - 1))
    m4 = float(np.mean(dev**4))
    return {"n": len(a), "mean": mean, "var": var, "m4": m4}


def single_shot_stats(cols: dict) -> dict:
    """Per-axis mean, Bessel variance and fourth central moment of J."""
    require(bool(np.all(cols["region"] == "ALL")), "single-ensemble shots need region ALL")
    j = (cols["n1"] - cols["n2"]) / 2
    out = {"n_particles": float(np.mean(cols["n1"] + cols["n2"]))}
    for axis in AXES:
        sel = cols["setting"] == axis
        if np.any(sel):
            out[axis] = _stats(j[sel])
    return out


def bipartite_shot_stats(cols: dict) -> dict:
    """Per-axis A/B statistics from rows paired by shot_id."""
    order = np.lexsort((cols["region"], cols["shot_id"]))
    sid = cols["shot_id"][order].reshape(-1, 2)
    reg = cols["region"][order].reshape(-1, 2)
    setting = cols["setting"][order].reshape(-1, 2)
    require(bool(np.all(sid[:, 0] == sid[:, 1])), "shot ids are not paired A/B")
    require(bool(np.all(reg[:, 0] == "A") and np.all(reg[:, 1] == "B")), "regions not A/B")
    require(bool(np.all(setting[:, 0] == setting[:, 1])), "paired shots mix settings")
    j = ((cols["n1"] - cols["n2"]) / 2)[order].reshape(-1, 2)
    tot = (cols["n1"] + cols["n2"])[order].reshape(-1, 2)
    out = {"n_a": float(np.mean(tot[:, 0])), "n_b": float(np.mean(tot[:, 1]))}
    for axis in AXES:
        sel = setting[:, 0] == axis
        if not np.any(sel):
            continue
        a, b = j[sel, 0], j[sel, 1]
        sa, sb = _stats(a), _stats(b)
        da, db = a - sa["mean"], b - sb["mean"]
        cov = float(np.sum(da * db) / (len(a) - 1))
        out[axis] = {"A": sa, "B": sb, "cov": cov, "cov_m22": float(np.mean(da**2 * db**2))}
    return out


def check_single_estimate(stats: dict, mean, cov, n_particles: float):
    """estimate's means and variances equal the numpy recomputation."""
    close(n_particles, stats["n_particles"], RECOMPUTE_RTOL, "estimated N")
    for i, axis in enumerate(AXES):
        if axis not in stats:
            continue
        close(float(mean[i]), stats[axis]["mean"], RECOMPUTE_RTOL, f"mean J_{axis}", 1e-9)
        close(float(cov[i][i]), stats[axis]["var"], RECOMPUTE_RTOL, f"Var(J_{axis})", 1e-9)


def check_bipartite_estimate(stats: dict, mean_a, mean_b, cov):
    """estimate's regional means, variances and A/B covariances equal numpy's."""
    for i, axis in enumerate(AXES):
        if axis not in stats:
            continue
        s = stats[axis]
        ia, ib = i, i + 3
        close(float(mean_a[i]), s["A"]["mean"], RECOMPUTE_RTOL, f"mean J_{axis}^A", 1e-9)
        close(float(mean_b[i]), s["B"]["mean"], RECOMPUTE_RTOL, f"mean J_{axis}^B", 1e-9)
        close(float(cov[ia][ia]), s["A"]["var"], RECOMPUTE_RTOL, f"Var(J_{axis}^A)", 1e-9)
        close(float(cov[ib][ib]), s["B"]["var"], RECOMPUTE_RTOL, f"Var(J_{axis}^B)", 1e-9)
        close(float(cov[ia][ib]), s["cov"], RECOMPUTE_RTOL, f"Cov(J_{axis}^A,J_{axis}^B)", 1e-9)


def _within_se(sample: float, exact: float, se: float, what: str) -> None:
    require(
        abs(sample - exact) <= SE_LIMIT * se + 1e-9,
        f"{what}: sample {sample:.6g} vs exact {exact:.6g} is "
        f"{abs(sample - exact) / max(se, 1e-300):.1f} standard errors off",
    )


def _check_axis_sampling(s: dict, exact_mean: float, exact_var: float, what: str) -> None:
    n = s["n"]
    _within_se(s["mean"], exact_mean, math.sqrt(max(s["var"], 0.0) / n), f"mean {what}")
    _within_se(s["var"], exact_var, math.sqrt(max(s["m4"] - s["var"] ** 2, 0.0) / n),
               f"Var {what}")


def check_single_sampling(stats: dict, exact_mean, exact_cov):
    """Sample means and variances lie within SE_LIMIT standard errors of exact."""
    for i, axis in enumerate(AXES):
        if axis in stats:
            _check_axis_sampling(stats[axis], exact_mean[i], exact_cov[i][i], f"J_{axis}")


def check_bipartite_sampling(stats: dict, exact_mean_a, exact_mean_b, exact_cov):
    for i, axis in enumerate(AXES):
        if axis not in stats:
            continue
        s = stats[axis]
        ia, ib = i, i + 3
        _check_axis_sampling(s["A"], exact_mean_a[i], exact_cov[ia][ia], f"J_{axis}^A")
        _check_axis_sampling(s["B"], exact_mean_b[i], exact_cov[ib][ib], f"J_{axis}^B")
        se = math.sqrt(max(s["cov_m22"] - s["cov"] ** 2, 0.0) / s["A"]["n"])
        _within_se(s["cov"], exact_cov[ia][ib], se, f"Cov(J_{axis}^A,J_{axis}^B)")


def check_shuffle_invariant(mean, cov, mean_shuffled, cov_shuffled):
    """Estimates from a row-shuffled copy are bit-identical."""
    a = np.concatenate([np.ravel(mean), np.ravel(cov)])
    b = np.concatenate([np.ravel(mean_shuffled), np.ravel(cov_shuffled)])
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    require(bool(np.all(same)), "estimate changes when the shot rows are shuffled")


# ---------------------------------------------------------------------------
# Bounds


def check_wineland(n: float, jx: float, var_jz: float, bsa: float, gr: float, ratios):
    """BSA = C(1 - sqrt(xi^2)) from the moments; GR dominates every tangent t.

    `ratios` holds gr_tangent_ratio at the benchmark's grid of t.
    """
    xi2 = n * var_jz / jx**2
    contrast = abs(jx) / (n / 2)
    expected = max(0.0, contrast * (1.0 - math.sqrt(xi2)))
    close(bsa, expected, 1e-9, "Wineland BSA vs C(1 - xi)", 1e-15)
    require(gr >= 0.0, f"negative GR bound {gr}")
    worst = max(ratios)
    require(gr >= worst - 1e-12 * max(1.0, abs(worst)),
            f"GR {gr!r} below the tangent ratio {worst!r} at a grid point")


def giovannetti_g2(cov, mean_a, mean_b, g_z: float, g_y: float) -> float:
    """G^2 from the 6x6 covariance (order xA yA zA xB yB zB), by its definition."""
    cov = np.asarray(cov, dtype=float)
    var_z = g_z**2 * cov[2, 2] + cov[5, 5] + 2 * g_z * cov[2, 5]
    var_y = g_y**2 * cov[1, 1] + cov[4, 4] + 2 * g_y * cov[1, 4]
    denom = (abs(g_z * g_y) * abs(mean_a[0]) + abs(mean_b[0])) ** 2 / 4
    return var_z * var_y / denom


def check_giovannetti(g2_reported: float, g2_recomputed: float, bsa: float, gr: float,
                      grid_bsa, grid_gr):
    """G^2 recomputed at the reported gains; the bounds beat every grid gain pair."""
    close(g2_reported, g2_recomputed, 1e-9, "G^2 at the reported gains")
    require(g2_reported < 1.0, f"G^2 = {g2_reported} certifies nothing on a squeezed split")
    require(bsa > 0.0, f"BSA bound {bsa} is not positive on a squeezed split")
    require(gr > 0.0, f"GR bound {gr} is not positive on a squeezed split")
    best_bsa, best_gr = max(grid_bsa), max(grid_gr)
    require(bsa >= best_bsa - 1e-12, f"BSA {bsa!r} below grid gain value {best_bsa!r}")
    require(gr >= best_gr - 1e-12, f"GR {gr!r} below grid gain value {best_gr!r}")


# ---------------------------------------------------------------------------
# Two-qubit oracles


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def two_qubit_spin_moments(rho: np.ndarray):
    """Mean and symmetrized covariance of J = (sigma^(1) + sigma^(2))/2."""
    eye = np.eye(2)
    ops = [0.5 * (np.kron(PAULI[a], eye) + np.kron(eye, PAULI[a])) for a in AXES]
    mean = np.array([np.real(np.trace(rho @ op)) for op in ops])
    cov = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            cov[i, j] = np.real(np.trace(rho @ sym)) - mean[i] * mean[j]
    return mean, cov


def werner_gr(p: float) -> float:
    return max(0.0, (3 * p - 1) / 2)


def pure_gr(psi: np.ndarray) -> float:
    sv = np.linalg.svd(np.asarray(psi).reshape(2, 2), compute_uv=False)
    return float(np.sum(sv) ** 2 - 1.0)


def check_value(value: float, expected: float, atol: float, what: str):
    require(abs(value - expected) <= atol, f"{what}: {value!r} vs {expected!r} (atol {atol:g})")


def check_sandwich(bsa: float, gr: float, bsa_upper: float, gr_ppt: float):
    require(bsa <= bsa_upper + 1e-6, f"Wineland BSA {bsa!r} exceeds bsa_upper {bsa_upper!r}")
    require(gr <= gr_ppt + 1e-6, f"Wineland GR {gr!r} exceeds gr_ppt {gr_ppt!r}")


def check_witness_minimum(value: float):
    require(value >= -1e-6, f"witness goes negative on product states ({value!r})")


def check_run_checks(results):
    failed = [name for name, passed in results if not passed]
    require(not failed, f"verify checks failed: {failed}")
