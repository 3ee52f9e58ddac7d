"""Measured/simulated moment data, shot-record estimators and file formats.

Spin values derive from atom counts as J = (n1 - n2)/2. Covariance entries
that the measurement settings cannot determine are stored as 0.0 and carry
an explicit "unmeasured" flag; consumers must fail fast instead of reading
them. Means of completely absent axes are stored as NaN (serialized null).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EstimationError, SchemaError, UnmeasuredMomentError, ValidationError

AXES = ("x", "y", "z")
BIPARTITE_AXES = ("xA", "yA", "zA", "xB", "yB", "zB")

SYMMETRY_ATOL = 1e-12


def _pair(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i <= j else (j, i)


def _check_covariance(cov: np.ndarray, size: int, unmeasured, scale: float) -> None:
    if cov.shape != (size, size):
        raise ValidationError(f"covariance must be {size}x{size}, got {cov.shape}")
    finite = np.isfinite(cov)
    for i, j in zip(*np.nonzero(~finite)):
        if _pair(int(i), int(j)) not in unmeasured:
            raise ValidationError(f"non-finite covariance entry at index ({i}, {j})")
    # Any non-finite entry left is flagged unmeasured; cov_value never returns it.
    checked = np.where(finite, cov, 0.0)
    if np.max(np.abs(checked - checked.T)) > SYMMETRY_ATOL:
        raise ValidationError("covariance matrix is not symmetric")
    # Exactly-zero variances pick up O(eps * N^2) rounding; clip those to 0.
    tol = 1e-9 * max(1.0, scale)
    for i in range(size):
        if (i, i) in unmeasured:
            continue
        if cov[i, i] < -tol:
            raise ValidationError(f"negative variance at axis index {i}")
        if cov[i, i] < 0:
            cov[i, i] = 0.0


def _check_count(value: float, name: str) -> None:
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"{name} must be finite and nonnegative, got {value!r}")


def _check_mean(mean: np.ndarray, n: float, where: str) -> None:
    # NaN marks an unmeasured axis; an infinite mean is never valid.
    if np.any(np.isinf(mean)):
        raise ValidationError(f"{where}: mean spin has an infinite entry")
    finite = mean[np.isfinite(mean)]
    norm = float(np.sqrt(np.sum(finite**2)))
    if norm > 0.5 * n * 1.10:
        raise ValidationError(
            f"{where}: |<J>| = {norm:.4g} exceeds N/2 = {n / 2:.4g} by more than 10%"
        )
    if norm > 0.5 * n * (1 + 1e-9) + 1e-12:
        warnings.warn(
            f"{where}: |<J>| = {norm:.4g} slightly exceeds N/2 = {n / 2:.4g}",
            stacklevel=3,
        )


@dataclass(frozen=True, eq=False)
class MomentData:
    """First and second moments of one collective spin.

    mean is (<J_x>, <J_y>, <J_z>); covariance holds symmetrized central
    second moments, Cov(A,B) = <{A,B}>/2 - <A><B>.
    """

    n_particles: float
    mean: np.ndarray
    covariance: np.ndarray
    unmeasured: frozenset = frozenset()
    counts: dict | None = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(3)
        cov = np.asarray(self.covariance, dtype=float).reshape(3, 3)
        unmeasured = frozenset(_pair(int(i), int(j)) for i, j in self.unmeasured)
        _check_count(self.n_particles, "n_particles")
        _check_covariance(cov, 3, unmeasured, (self.n_particles / 2) ** 2)
        _check_mean(mean, self.n_particles, "MomentData")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "unmeasured", unmeasured)

    @property
    def axes(self) -> tuple[str, ...]:
        return AXES

    def axis_index(self, label: str) -> int:
        try:
            return AXES.index(label)
        except ValueError:
            raise ValidationError(f"unknown axis {label!r} for single-ensemble moments")

    def mean_value(self, i: int) -> float:
        v = self.mean[i]
        if not np.isfinite(v):
            raise UnmeasuredMomentError(f"mean of axis {AXES[i]} was not measured")
        return float(v)

    def cov_value(self, i: int, j: int) -> float:
        if _pair(i, j) in self.unmeasured:
            raise UnmeasuredMomentError(
                f"covariance entry ({AXES[i]},{AXES[j]}) was not measured"
            )
        return float(self.covariance[i, j])

    def variance(self, axis: str) -> float:
        i = self.axis_index(axis)
        return self.cov_value(i, i)


@dataclass(frozen=True, eq=False)
class BipartiteMomentData:
    """Moments of two collective spins A and B.

    The 6x6 covariance is ordered (J_x^A, J_y^A, J_z^A, J_x^B, J_y^B, J_z^B).
    """

    n_a: float
    n_b: float
    mean_a: np.ndarray
    mean_b: np.ndarray
    covariance: np.ndarray
    unmeasured: frozenset = frozenset()
    counts: dict | None = None

    def __post_init__(self):
        mean_a = np.asarray(self.mean_a, dtype=float).reshape(3)
        mean_b = np.asarray(self.mean_b, dtype=float).reshape(3)
        cov = np.asarray(self.covariance, dtype=float).reshape(6, 6)
        unmeasured = frozenset(_pair(int(i), int(j)) for i, j in self.unmeasured)
        _check_count(self.n_a, "n_a")
        _check_count(self.n_b, "n_b")
        _check_covariance(cov, 6, unmeasured, ((self.n_a + self.n_b) / 2) ** 2)
        _check_mean(mean_a, self.n_a, "BipartiteMomentData (region A)")
        _check_mean(mean_b, self.n_b, "BipartiteMomentData (region B)")
        for arr in (mean_a, mean_b, cov):
            arr.setflags(write=False)
        object.__setattr__(self, "mean_a", mean_a)
        object.__setattr__(self, "mean_b", mean_b)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "unmeasured", unmeasured)

    @property
    def axes(self) -> tuple[str, ...]:
        return BIPARTITE_AXES

    @property
    def mean(self) -> np.ndarray:
        return np.concatenate([self.mean_a, self.mean_b])

    def axis_index(self, label: str) -> int:
        try:
            return BIPARTITE_AXES.index(label)
        except ValueError:
            raise ValidationError(f"unknown axis {label!r} for bipartite moments")

    def mean_value(self, i: int) -> float:
        v = self.mean[i]
        if not np.isfinite(v):
            raise UnmeasuredMomentError(
                f"mean of axis {BIPARTITE_AXES[i]} was not measured"
            )
        return float(v)

    def cov_value(self, i: int, j: int) -> float:
        if _pair(i, j) in self.unmeasured:
            raise UnmeasuredMomentError(
                f"covariance entry ({BIPARTITE_AXES[i]},{BIPARTITE_AXES[j]}) was not measured"
            )
        return float(self.covariance[i, j])


@dataclass(frozen=True)
class ShotRecord:
    """One measurement outcome: atom counts in the two hyperfine states."""

    shot_id: int
    setting: str
    region: str
    n1: int
    n2: int

    def __post_init__(self):
        if self.setting not in AXES:
            raise ValidationError(f"setting must be one of {AXES}, got {self.setting!r}")
        if self.region not in ("ALL", "A", "B"):
            raise ValidationError(f"region must be ALL, A or B, got {self.region!r}")
        for name, v in (("n1", self.n1), ("n2", self.n2)):
            if int(v) != v or v < 0:
                raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def j_value(self) -> float:
        return (self.n1 - self.n2) / 2

    @property
    def total(self) -> int:
        return self.n1 + self.n2


def _sorted_mean(values) -> float:
    # Sorted accumulation makes the estimate exactly shot-order independent.
    return float(np.sum(np.sort(np.asarray(values, dtype=float))) / len(values))


def _sorted_var(values, mean: float) -> float:
    dev = np.sort((np.asarray(values, dtype=float) - mean) ** 2)
    return float(np.sum(dev) / (len(values) - 1))


def _sorted_cov(pairs, mean_a: float, mean_b: float) -> float:
    prods = np.sort([(a - mean_a) * (b - mean_b) for a, b in pairs])
    return float(np.sum(prods) / (len(prods) - 1))


def estimate_moments(shots: list[ShotRecord]) -> MomentData:
    """Estimate single-ensemble moments from whole-cloud shot records.

    Per-axis means and Bessel-corrected variances; off-diagonal covariances
    cannot be estimated from single-axis settings and are flagged unmeasured.
    """
    if not shots:
        raise EstimationError("no shots supplied")
    for s in shots:
        if s.region != "ALL":
            raise EstimationError(
                f"estimate_moments requires region ALL, got {s.region!r} in shot {s.shot_id}"
            )
    by_axis: dict[str, list[float]] = {a: [] for a in AXES}
    for s in shots:
        by_axis[s.setting].append(s.j_value)

    mean = np.full(3, np.nan)
    cov = np.zeros((3, 3))
    unmeasured = set()
    counts = {}
    for i, axis in enumerate(AXES):
        vals = by_axis[axis]
        if len(vals) == 0:
            unmeasured.add((i, i))
            continue
        if len(vals) < 2:
            raise EstimationError(f"axis {axis!r} has fewer than 2 shots")
        mean[i] = _sorted_mean(vals)
        cov[i, i] = _sorted_var(vals, mean[i])
        counts[axis] = len(vals)
    for i in range(3):
        for j in range(i + 1, 3):
            unmeasured.add((i, j))

    n = _sorted_mean([s.total for s in shots])
    return MomentData(n, mean, cov, frozenset(unmeasured), counts)


def estimate_bipartite_moments(shots: list[ShotRecord]) -> BipartiteMomentData:
    """Estimate regional moments from paired A/B shot records.

    Each shot_id must carry exactly one A and one B record with the same
    setting (simultaneous same-axis measurement of both regions). Same-axis
    cross covariances come from the paired values; mixed-axis entries are
    flagged unmeasured.
    """
    if not shots:
        raise EstimationError("no shots supplied")
    paired: dict[int, dict[str, ShotRecord]] = {}
    for s in shots:
        if s.region not in ("A", "B"):
            raise EstimationError(
                f"bipartite estimation requires regions A/B, got {s.region!r}"
            )
        slot = paired.setdefault(s.shot_id, {})
        if s.region in slot:
            raise EstimationError(f"duplicate region {s.region} in shot {s.shot_id}")
        slot[s.region] = s

    by_axis: dict[str, list[tuple[float, float]]] = {a: [] for a in AXES}
    totals_a, totals_b = [], []
    for shot_id in sorted(paired):
        slot = paired[shot_id]
        if set(slot) != {"A", "B"}:
            raise EstimationError(f"shot {shot_id} is missing region {'B' if 'A' in slot else 'A'}")
        a, b = slot["A"], slot["B"]
        if a.setting != b.setting:
            raise EstimationError(
                f"shot {shot_id} mixes settings {a.setting!r} and {b.setting!r}"
            )
        by_axis[a.setting].append((a.j_value, b.j_value))
        totals_a.append(a.total)
        totals_b.append(b.total)

    mean = np.full(6, np.nan)
    cov = np.zeros((6, 6))
    unmeasured = {_pair(i, j) for i in range(6) for j in range(i, 6)}
    counts = {}
    for i, axis in enumerate(AXES):
        pairs = by_axis[axis]
        if len(pairs) == 0:
            continue
        if len(pairs) < 2:
            raise EstimationError(f"axis {axis!r} has fewer than 2 paired shots")
        pairs = sorted(pairs)
        va = [p[0] for p in pairs]
        vb = [p[1] for p in pairs]
        ia, ib = i, i + 3
        mean[ia] = _sorted_mean(va)
        mean[ib] = _sorted_mean(vb)
        cov[ia, ia] = _sorted_var(va, mean[ia])
        cov[ib, ib] = _sorted_var(vb, mean[ib])
        c = _sorted_cov(pairs, mean[ia], mean[ib])
        cov[ia, ib] = cov[ib, ia] = c
        unmeasured -= {(ia, ia), (ib, ib), _pair(ia, ib)}
        counts[axis] = len(pairs)

    n_a = _sorted_mean(totals_a)
    n_b = _sorted_mean(totals_b)
    return BipartiteMomentData(
        n_a, n_b, mean[:3], mean[3:], cov, frozenset(unmeasured), counts
    )


# ---------------------------------------------------------------------------
# JSON moments format


def _mean_to_json(mean: np.ndarray) -> list:
    return [None if not np.isfinite(v) else float(v) for v in mean]


def _mean_from_json(raw, size: int, field_name: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != size:
        raise SchemaError(f"field {field_name!r} must be an array of {size} numbers")
    out = np.full(size, np.nan)
    for i, v in enumerate(raw):
        if v is None:
            continue
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaError(f"field {field_name!r}[{i}] must be a number or null")
        out[i] = float(v)
    return out


def _cov_from_json(raw, size: int) -> np.ndarray:
    if (
        not isinstance(raw, list)
        or len(raw) != size
        or any(not isinstance(row, list) or len(row) != size for row in raw)
    ):
        raise SchemaError(f"field 'covariance' must be a {size}x{size} array of arrays")
    return np.asarray(raw, dtype=float)


def _unmeasured_from_json(raw) -> frozenset:
    if raw is None:
        return frozenset()
    if not isinstance(raw, list):
        raise SchemaError("field 'unmeasured' must be an array of index pairs")
    out = set()
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("field 'unmeasured' entries must be [i, j] pairs")
        out.add(_pair(int(entry[0]), int(entry[1])))
    return frozenset(out)


def moments_to_dict(data) -> dict:
    """JSON-ready dict for MomentData or BipartiteMomentData."""
    if isinstance(data, MomentData):
        out = {
            "kind": "single",
            "n_particles": float(data.n_particles),
            "mean": _mean_to_json(data.mean),
            "covariance": [[float(v) for v in row] for row in data.covariance],
            "unmeasured": sorted([list(p) for p in data.unmeasured]),
        }
    elif isinstance(data, BipartiteMomentData):
        out = {
            "kind": "bipartite",
            "n_A": float(data.n_a),
            "n_B": float(data.n_b),
            "mean_A": _mean_to_json(data.mean_a),
            "mean_B": _mean_to_json(data.mean_b),
            "covariance": [[float(v) for v in row] for row in data.covariance],
            "unmeasured": sorted([list(p) for p in data.unmeasured]),
        }
    else:
        raise ValidationError(f"cannot serialize object of type {type(data).__name__}")
    if data.counts:
        out["counts"] = {k: int(v) for k, v in data.counts.items()}
    return out


def moments_from_dict(obj: dict):
    """Parse the moments JSON object; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise SchemaError("top-level JSON value must be an object")
    kind = obj.get("kind")
    if kind == "single":
        allowed = {"kind", "n_particles", "mean", "covariance", "unmeasured", "counts"}
        required = {"kind", "n_particles", "mean", "covariance"}
    elif kind == "bipartite":
        allowed = {
            "kind", "n_A", "n_B", "mean_A", "mean_B", "covariance", "unmeasured", "counts",
        }
        required = {"kind", "n_A", "n_B", "mean_A", "mean_B", "covariance"}
    else:
        raise SchemaError(f"field 'kind' must be 'single' or 'bipartite', got {kind!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown field(s): {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"missing required field(s): {sorted(missing)}")

    counts = obj.get("counts")
    if counts is not None and not isinstance(counts, dict):
        raise SchemaError("field 'counts' must be an object")
    unmeasured = _unmeasured_from_json(obj.get("unmeasured"))
    try:
        if kind == "single":
            return MomentData(
                float(obj["n_particles"]),
                _mean_from_json(obj["mean"], 3, "mean"),
                _cov_from_json(obj["covariance"], 3),
                unmeasured,
                counts,
            )
        return BipartiteMomentData(
            float(obj["n_A"]),
            float(obj["n_B"]),
            _mean_from_json(obj["mean_A"], 3, "mean_A"),
            _mean_from_json(obj["mean_B"], 3, "mean_B"),
            _cov_from_json(obj["covariance"], 6),
            unmeasured,
            counts,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid numeric field: {exc}")


def save_moments(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(moments_to_dict(data), fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_moments(path):
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    try:
        return moments_from_dict(obj)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Shots CSV format

SHOTS_HEADER = ["shot_id", "setting", "region", "n1", "n2"]


def save_shots(shots: list[ShotRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SHOTS_HEADER)
        for s in shots:
            writer.writerow([s.shot_id, s.setting, s.region, s.n1, s.n2])


def load_shots(path) -> list[ShotRecord]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file")
        if header != SHOTS_HEADER:
            raise SchemaError(
                f"{path}: header must be {','.join(SHOTS_HEADER)}, got {','.join(header)}"
            )
        shots = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise SchemaError(f"{path}: line {lineno}: expected 5 fields, got {len(row)}")
            try:
                shots.append(
                    ShotRecord(int(row[0]), row[1], row[2], int(row[3]), int(row[4]))
                )
            except (ValueError, ValidationError) as exc:
                raise SchemaError(f"{path}: line {lineno}: {exc}")
    return shots
