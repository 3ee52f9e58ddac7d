import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entbound.errors import (
    EstimationError,
    SchemaError,
    UnmeasuredMomentError,
    ValidationError,
)
from entbound.moments import (
    BipartiteMomentData,
    MomentData,
    ShotRecord,
    estimate_bipartite_moments,
    estimate_moments,
    load_moments,
    load_shots,
    moments_from_dict,
    moments_to_dict,
    save_moments,
    save_shots,
)


def shots_z(values, start_id=0):
    out = []
    for k, (n1, n2) in enumerate(values):
        out.append(ShotRecord(start_id + k, "z", "ALL", n1, n2))
    return out


def test_hand_arithmetic_example():
    md = estimate_moments(shots_z([(3, 1), (2, 2), (1, 3)]))
    assert md.mean[2] == pytest.approx(0.0)
    assert md.covariance[2, 2] == pytest.approx(1.0)  # sample variance of {1,0,-1}
    assert md.n_particles == pytest.approx(4.0)


def test_identical_shots_zero_variance():
    md = estimate_moments(shots_z([(5, 1)] * 10))
    assert md.covariance[2, 2] == 0.0
    assert md.mean[2] == pytest.approx(2.0)


def test_missing_axis_flagged_and_fails_fast():
    md = estimate_moments(shots_z([(3, 1), (1, 3)]))
    assert (0, 0) in md.unmeasured and (1, 1) in md.unmeasured
    assert (0, 2) in md.unmeasured
    with pytest.raises(UnmeasuredMomentError):
        md.cov_value(0, 0)
    with pytest.raises(UnmeasuredMomentError):
        md.mean_value(0)
    # measured axis stays readable
    assert md.cov_value(2, 2) >= 0


def test_single_shot_axis_is_error():
    shots = shots_z([(3, 1), (1, 3)]) + [ShotRecord(10, "x", "ALL", 2, 2)]
    with pytest.raises(EstimationError):
        estimate_moments(shots)


def test_region_mixing_is_error():
    shots = [ShotRecord(0, "z", "A", 1, 1), ShotRecord(0, "z", "B", 1, 1)]
    with pytest.raises(EstimationError):
        estimate_moments(shots)


@given(st.permutations(list(range(9))))
@settings(max_examples=30, deadline=None)
def test_estimator_permutation_invariant(order):
    values = [(5, 0), (4, 1), (3, 2), (2, 3), (1, 4), (0, 5), (5, 1), (2, 2), (4, 4)]
    base = estimate_moments(shots_z(values))
    shuffled = estimate_moments(shots_z([values[i] for i in order]))
    assert np.array_equal(
        np.nan_to_num(base.mean, nan=-1.0), np.nan_to_num(shuffled.mean, nan=-1.0)
    )
    assert np.array_equal(base.covariance, shuffled.covariance)
    assert base.n_particles == shuffled.n_particles


def test_bipartite_anticorrelated_pairs():
    shots = []
    vals = [3.0, -1.0, 2.0, 0.0, -2.0, 1.0]
    for k, v in enumerate(vals):
        # J^A = v, J^B = -v around zero mean: perfect anticorrelation
        shots.append(ShotRecord(k, "z", "A", int(10 + v * 2), int(10 - v * 2)))
        shots.append(ShotRecord(k, "z", "B", int(10 - v * 2), int(10 + v * 2)))
    md = estimate_bipartite_moments(shots)
    iz_a, iz_b = 2, 5
    var_a = md.cov_value(iz_a, iz_a)
    var_b = md.cov_value(iz_b, iz_b)
    cov = md.cov_value(iz_a, iz_b)
    assert cov == pytest.approx(-math.sqrt(var_a * var_b), rel=1e-12)
    with pytest.raises(UnmeasuredMomentError):
        md.cov_value(2, 4)  # mixed-axis cross covariance


def test_bipartite_unpaired_region_error():
    shots = [
        ShotRecord(0, "z", "A", 1, 1),
        ShotRecord(0, "z", "B", 1, 1),
        ShotRecord(1, "z", "A", 2, 1),
    ]
    with pytest.raises(EstimationError):
        estimate_bipartite_moments(shots)


def test_bipartite_mixed_setting_error():
    shots = [ShotRecord(0, "z", "A", 1, 1), ShotRecord(0, "y", "B", 1, 1)]
    with pytest.raises(EstimationError):
        estimate_bipartite_moments(shots)


def test_bipartite_independent_streams_near_zero_cov():
    rng = np.random.default_rng(42)
    shots = []
    n = 4000
    for k in range(n):
        a = int(rng.binomial(20, 0.5))
        b = int(rng.binomial(20, 0.5))
        shots.append(ShotRecord(k, "z", "A", a, 20 - a))
        shots.append(ShotRecord(k, "z", "B", b, 20 - b))
    md = estimate_bipartite_moments(shots)
    var_a = md.cov_value(2, 2)
    var_b = md.cov_value(5, 5)
    se = math.sqrt(var_a * var_b / (n - 1))
    assert abs(md.cov_value(2, 5)) <= 3 * se


def test_moment_data_validation():
    with pytest.raises(ValidationError):
        MomentData(4.0, [0, 0, 0], np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))
    with pytest.raises(ValidationError):
        MomentData(4.0, [0, 0, 0], -np.eye(3))
    with pytest.raises(ValidationError):
        MomentData(4.0, [3.0, 0, 0], np.eye(3))  # |mean| > 1.1 N/2


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_non_finite_atom_number_rejected(n):
    with pytest.raises(ValidationError):
        MomentData(n, [0, 0, 0], np.eye(3))
    with pytest.raises(ValidationError):
        BipartiteMomentData(n, 4.0, [0, 0, 0], [0, 0, 0], np.eye(6))
    with pytest.raises(ValidationError):
        BipartiteMomentData(4.0, n, [0, 0, 0], [0, 0, 0], np.eye(6))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_covariance_rejected_unless_unmeasured(value):
    cov = np.eye(3)
    cov[0, 1] = cov[1, 0] = value
    with pytest.raises(ValidationError, match="non-finite"):
        MomentData(4.0, [0, 0, 0], cov)
    MomentData(4.0, [0, 0, 0], cov, frozenset({(0, 1)}))
    cov6 = np.eye(6)
    cov6[2, 2] = value
    with pytest.raises(ValidationError, match="non-finite"):
        BipartiteMomentData(4.0, 4.0, [0, 0, 0], [0, 0, 0], cov6)


def test_infinite_mean_rejected_nan_mean_unmeasured():
    with pytest.raises(ValidationError, match="infinite"):
        MomentData(4.0, [math.inf, 0, 0], np.eye(3))
    with pytest.raises(ValidationError, match="infinite"):
        BipartiteMomentData(4.0, 4.0, [0, 0, 0], [0, -math.inf, 0], np.eye(6))
    md = MomentData(4.0, [1.0, math.nan, 0], np.eye(3))
    with pytest.raises(UnmeasuredMomentError):
        md.mean_value(1)


def test_moment_data_soft_warning():
    with pytest.warns(UserWarning):
        MomentData(4.0, [2.1, 0, 0], np.eye(3))


# ---------------------------------------------------------------------------
# serialization


def _random_moment_data(rng):
    n = float(rng.uniform(4, 100))
    mean = rng.uniform(-1, 1, size=3)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T
    unmeasured = frozenset({(0, 1)}) if rng.random() < 0.5 else frozenset()
    counts = {"z": int(rng.integers(2, 50))} if rng.random() < 0.5 else None
    return MomentData(n, mean, cov, unmeasured, counts)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_single(seed):
    rng = np.random.default_rng(seed)
    md = _random_moment_data(rng)
    loaded = moments_from_dict(json.loads(json.dumps(moments_to_dict(md))))
    assert loaded.n_particles == md.n_particles
    assert np.array_equal(loaded.mean, md.mean)
    assert np.array_equal(loaded.covariance, md.covariance)
    assert loaded.unmeasured == md.unmeasured
    assert loaded.counts == md.counts


def test_round_trip_file(tmp_path):
    rng = np.random.default_rng(0)
    md = _random_moment_data(rng)
    path = tmp_path / "m.json"
    save_moments(md, path)
    loaded = load_moments(path)
    assert np.array_equal(loaded.mean, md.mean)
    assert np.array_equal(loaded.covariance, md.covariance)


def test_round_trip_bipartite(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 6))
    cov = a @ a.T
    md = BipartiteMomentData(
        10.0, 12.0, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3), cov,
        frozenset({(0, 3)}),
    )
    path = tmp_path / "b.json"
    save_moments(md, path)
    loaded = load_moments(path)
    assert isinstance(loaded, BipartiteMomentData)
    assert np.array_equal(loaded.covariance, md.covariance)
    assert loaded.unmeasured == md.unmeasured


def test_nan_mean_serializes_as_null(tmp_path):
    md = MomentData(
        4.0, [1.0, np.nan, np.nan], np.zeros((3, 3)),
        frozenset({(1, 1), (2, 2), (0, 1), (0, 2), (1, 2), (0, 0)}),
    )
    path = tmp_path / "m.json"
    save_moments(md, path)
    raw = json.loads(path.read_text())
    assert raw["mean"][1] is None
    loaded = load_moments(path)
    assert math.isnan(loaded.mean[1])


def test_missing_covariance_field(tmp_path):
    obj = {"kind": "single", "n_particles": 4.0, "mean": [0, 0, 0]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(SchemaError, match="covariance"):
        load_moments(path)


def test_unknown_field_rejected():
    obj = {
        "kind": "single", "n_particles": 4.0, "mean": [0, 0, 0],
        "covariance": [[0] * 3] * 3, "extra": 1,
    }
    with pytest.raises(SchemaError, match="extra"):
        moments_from_dict(obj)


def test_paper_dataset_file(tmp_path):
    obj = {
        "kind": "single",
        "n_particles": 476.0,
        "mean": [233.24, None, None],
        "covariance": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 32.0]],
        "unmeasured": [[0, 0], [1, 1], [0, 1], [0, 2], [1, 2]],
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj))
    md = load_moments(path)
    # downstream squeezing parameter from this file
    from entbound.bounds import wineland_xi2

    xi2, contrast = wineland_xi2(md)
    assert xi2 == pytest.approx(0.280, abs=1e-3)
    assert contrast == pytest.approx(0.980, abs=1e-12)


def test_shots_csv_round_trip(tmp_path):
    shots = [
        ShotRecord(0, "z", "ALL", 3, 1),
        ShotRecord(1, "x", "ALL", 2, 2),
        ShotRecord(2, "z", "A", 1, 0),
    ]
    path = tmp_path / "shots.csv"
    save_shots(shots, path)
    assert load_shots(path) == shots
    header = path.read_text().splitlines()[0]
    assert header == "shot_id,setting,region,n1,n2"


def test_shots_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,setting,region,n1,n2\n0,z,ALL,1,1\n")
    with pytest.raises(SchemaError, match="header"):
        load_shots(path)


def test_shots_csv_bad_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("shot_id,setting,region,n1,n2\n0,z,ALL,1,-1\n")
    with pytest.raises(SchemaError, match="line 2"):
        load_shots(path)
