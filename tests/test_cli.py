import json
import math

import numpy as np
import pytest

from entbound.cli import main
from entbound.bounds import (
    giovannetti_bounds,
    wineland_bounds,
    wineland_moment_data,
    wineland_moment_data_from_xi2,
)
from entbound.moments import load_moments, save_moments
from entbound.simulator import SplitConfig, css_x, oat_evolve, rotate_x, split_state_moments
from entbound.simulator import optimal_squeezing_rotation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wineland_paper_flags(capsys):
    code, out, _ = run(
        capsys, "wineland", "--n", "476", "--var-jz", "32", "--contrast", "0.980",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["xi2"] == pytest.approx(0.2800, abs=1e-3)
    assert rep["xi2_db"] == pytest.approx(-5.53, abs=0.01)
    assert rep["bsa_bound"] == pytest.approx(0.461, abs=0.005)
    assert rep["gr_first_order"] == pytest.approx(1.453e-3, abs=2e-5)
    assert "status" not in rep


def test_wineland_matches_library(capsys):
    code, out, _ = run(
        capsys, "wineland", "--n", "200", "--var-jz", "20", "--contrast", "0.95",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    lib = wineland_bounds(wineland_moment_data(200, 20.0, 0.95))
    assert rep["bsa_bound"] == pytest.approx(lib.bsa.value, rel=1e-12)
    assert rep["gr_bound"] == pytest.approx(lib.gr.value, rel=1e-12)


def test_wineland_unit_xi2_no_certification(capsys):
    # Var = (N/2)^2/N makes xi^2 exactly 1 at full contrast
    code, out, _ = run(
        capsys, "wineland", "--n", "476", "--var-jz", "119", "--contrast", "1.0",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["xi2"] == pytest.approx(1.0, rel=1e-12)
    assert rep["bsa_bound"] == 0.0
    assert rep["gr_bound"] == 0.0
    assert rep["status"] == "no entanglement certified"


def test_wineland_zero_contrast_degenerate(capsys):
    code, out, _ = run(
        capsys, "wineland", "--n", "476", "--var-jz", "32", "--contrast", "0",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["bsa_bound"] == 0.0
    assert "degenerate" in rep["status"]


def test_wineland_missing_flags_exit2(capsys):
    code, _, err = run(capsys, "wineland", "--n", "476")
    assert code == 2
    assert "contrast" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--n", "476", "--var-jz", "nan", "--contrast", "0.98"),
        ("--n", "476", "--var-jz", "inf", "--contrast", "0.98"),
        ("--n", "nan", "--var-jz", "32", "--contrast", "0.98"),
        ("--n", "476", "--var-jz", "32", "--contrast", "inf"),
    ],
)
def test_wineland_non_finite_flags_exit2(capsys, flags):
    code, out, _ = run(capsys, "wineland", *flags)
    assert code == 2
    assert "no entanglement certified" not in out


@pytest.mark.parametrize(
    "field,value",
    [("covariance", "Infinity"), ("covariance", "NaN"), ("mean", "Infinity"),
     ("n_particles", "Infinity"), ("n_particles", "NaN")],
)
def test_wineland_non_finite_json_exit2(tmp_path, capsys, field, value):
    obj = {
        "kind": "single",
        "n_particles": 476.0,
        "mean": [233.24, None, None],
        "covariance": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 32.0]],
        "unmeasured": [[0, 0], [1, 1], [0, 1], [0, 2], [1, 2]],
    }
    text = json.dumps(obj)
    if field == "covariance":
        text = text.replace("32.0", value)
    elif field == "mean":
        text = text.replace("233.24", value)
    else:
        text = text.replace("476.0", value)
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, _ = run(capsys, "wineland", "--moments", str(path))
    assert code == 2
    assert "no entanglement certified" not in out


def test_wineland_from_moments_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    save_moments(wineland_moment_data(476, 32.0, 0.98), path)
    code, out, _ = run(capsys, "wineland", "--moments", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["bsa_bound"] == pytest.approx(0.4614, abs=1e-3)


def test_wineland_malformed_json_exit2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "single"')
    code, _, err = run(capsys, "wineland", "--moments", str(path))
    assert code == 2
    assert "JSON" in err or "line" in err


def test_missing_file_exit3(capsys):
    code, _, err = run(capsys, "wineland", "--moments", "/nonexistent/m.json")
    assert code == 3


def test_simulate_estimate_wineland_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "run")
    code, out, _ = run(
        capsys, "simulate", "--n", "64", "--mu", "0.02", "--rotate",
        "--shots", "400", "--seed", "9", "--settings", "x,z",
        "--output", prefix,
    )
    assert code == 0
    moments_est = str(tmp_path / "est.json")
    code, out, _ = run(capsys, "estimate", "--shots", prefix + ".shots.csv",
                       "--output", moments_est)
    assert code == 0
    code, out, _ = run(capsys, "wineland", "--moments", moments_est, "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["xi2"] < 1.0  # squeezing survives the pipeline
    assert rep["bsa_bound"] > 0.0


def test_simulate_deterministic(tmp_path, capsys):
    p1, p2, p3 = (str(tmp_path / k) for k in ("a", "b", "c"))
    for prefix, seed in ((p1, 42), (p2, 42), (p3, 43)):
        code, _, _ = run(
            capsys, "simulate", "--n", "32", "--mu", "0.05", "--shots", "100",
            "--seed", str(seed), "--output", prefix,
        )
        assert code == 0
    a = (tmp_path / "a.shots.csv").read_bytes()
    b = (tmp_path / "b.shots.csv").read_bytes()
    c = (tmp_path / "c.shots.csv").read_bytes()
    assert a == b
    assert a != c
    assert (tmp_path / "a.moments.json").read_bytes() == (tmp_path / "b.moments.json").read_bytes()


def test_simulate_split_giovannetti_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "split")
    code, _, _ = run(
        capsys, "simulate", "--n", "100", "--mu", "0.0092", "--rotate",
        "--split", "0.5", "--shots", "200", "--seed", "3", "--output", prefix,
    )
    assert code == 0
    code, out, _ = run(
        capsys, "giovannetti", "--moments", prefix + ".moments.json", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["g2_optimized"] < 1.0
    assert rep["bsa_bound"] > 0.0
    assert rep["gr_bound"] > 0.0


def test_giovannetti_product_ensembles_zero(tmp_path, capsys):
    from entbound.moments import BipartiteMomentData
    from entbound.simulator import exact_moments

    n = 40
    md = exact_moments(css_x(n))
    cov = np.zeros((6, 6))
    cov[:3, :3] = md.covariance
    cov[3:, 3:] = md.covariance
    bp = BipartiteMomentData(n, n, md.mean, md.mean, cov)
    path = tmp_path / "prod.json"
    save_moments(bp, path)
    code, out, _ = run(
        capsys, "giovannetti", "--moments", str(path), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["bsa_bound"] == 0.0
    assert rep["gr_bound"] == 0.0
    assert rep["status"] == "no entanglement certified"


def test_giovannetti_reports_convergence(tmp_path, capsys):
    state = rotate_x(oat_evolve(css_x(20), 0.05), 0.3)
    bp = split_state_moments(state, SplitConfig(0.5))
    path = tmp_path / "b.json"
    save_moments(bp, path)
    lib = giovannetti_bounds(bp)
    code, out, _ = run(
        capsys, "giovannetti", "--moments", str(path), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["bsa_converged"] is lib.bsa.diagnostics["converged"]
    assert rep["gr_converged"] is lib.gr.diagnostics["converged"]
    code, out, _ = run(capsys, "giovannetti", "--moments", str(path))
    assert code == 0
    text = dict(line.split(None, 1) for line in out.splitlines())
    assert text["bsa_converged"] == str(lib.bsa.diagnostics["converged"])
    assert text["gr_converged"] == str(lib.gr.diagnostics["converged"])


def test_giovannetti_unmeasured_exit2(tmp_path, capsys):
    state = rotate_x(oat_evolve(css_x(20), 0.05), 0.3)
    bp = split_state_moments(state, SplitConfig(0.5))
    stripped = type(bp)(
        bp.n_a, bp.n_b, bp.mean_a, bp.mean_b, bp.covariance,
        bp.unmeasured | {(1, 4)},
    )
    path = tmp_path / "b.json"
    save_moments(stripped, path)
    code, _, err = run(capsys, "giovannetti", "--moments", str(path))
    assert code == 2
    assert "not measured" in err


def test_sweep_shape_and_consistency(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--n-values", "100,476", "--xi2-db=-12:0:13",
        "--contrast", "0.98", "--output", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "N,xi2_db,bsa_bound,gr_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2 * 13
    by_n = {}
    for n, db, bsa, gr in rows:
        by_n.setdefault(int(n), []).append((float(db), float(bsa), float(gr)))
    for n, series in by_n.items():
        dbs = [r[0] for r in series]
        assert dbs == sorted(dbs)
        bsa = [r[1] for r in series]
        gr = [r[2] for r in series]
        # bounds weakly decrease as xi^2 grows
        assert all(bsa[i] >= bsa[i + 1] - 1e-15 for i in range(len(bsa) - 1))
        assert all(gr[i] >= gr[i + 1] - 1e-15 for i in range(len(gr) - 1))
        assert bsa[-1] == 0.0 and gr[-1] == 0.0

    # a grid row reproduces the one-shot command at the same inputs
    target_db = -5.0
    row = next(r for r in by_n[476] if r[0] == target_db)
    lib = wineland_bounds(wineland_moment_data_from_xi2(476, 10 ** (target_db / 10), 0.98))
    assert row[1] == pytest.approx(lib.bsa.value, rel=1e-12)
    assert row[2] == pytest.approx(lib.gr.value, rel=1e-12)


def test_sweep_bad_grid_exit2(capsys):
    code, _, _ = run(capsys, "sweep", "--n-values", "100", "--xi2-db", "oops")
    assert code == 2


def test_estimate_bipartite_roundtrip(tmp_path, capsys):
    state = rotate_x(oat_evolve(css_x(30), 0.04), 0.2)
    bp = split_state_moments(state, SplitConfig(0.4))
    from entbound.simulator import sample_shots
    from entbound.moments import save_shots

    shots = sample_shots(bp, ("y", "z"), 300, seed=2)
    shots_path = tmp_path / "s.csv"
    save_shots(shots, shots_path)
    out_path = tmp_path / "m.json"
    code, _, _ = run(capsys, "estimate", "--shots", str(shots_path), "--output", str(out_path))
    assert code == 0
    est = load_moments(out_path)
    assert est.n_a == pytest.approx(bp.n_a, abs=1.0)
