"""Variance-based separability criteria and their witness operators.

Two criterion shapes are supported:

* sum form      S = sum_k Var(O_k) + sum(constants) - <B> >= 0 on separable states
* product form  U^2 = Var(O_1) Var(O_2) / <B>^2 >= 1 on separable states

Each operator role is a linear combination of measured collective spin
components (resolved against a moments object) together with spectral
bounds; roles can also be materialized as explicit matrices through an
OperatorContext for small-system ground-truth checks. A product criterion
maps, for any tangent parameter t >= 0, onto the sum form via
O_2 -> 2t O_2 and B -> 4t B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import (
    DegenerateCriterionError,
    NormalizationError,
    UnmeasuredMomentError,
    ValidationError,
)
from .operators import (
    HermitianOperator,
    SpectralBounds,
    collective_spin,
    collective_spin_embedded,
    tensor_embed,
    _hermitize,
)


@dataclass(frozen=True)
class OperatorRole:
    """One observable slot of a criterion.

    coeffs maps moment-axis labels (x/y/z or xA/../zB) to real coefficients;
    it may be empty for roles only ever used through an explicit context
    matrix (label is then required for lookup).
    """

    coeffs: tuple[tuple[str, float], ...]
    bounds: SpectralBounds
    label: str = ""

    @staticmethod
    def from_mapping(coeffs: Mapping[str, float], bounds: SpectralBounds, label: str = ""):
        items = tuple(sorted((str(k), float(v)) for k, v in coeffs.items()))
        return OperatorRole(items, bounds, label)

    def mean(self, moments) -> float:
        return sum(c * moments.mean_value(moments.axis_index(a)) for a, c in self.coeffs)

    def variance(self, moments) -> float:
        # Var of a linear combination expands through the covariance matrix.
        idx = [(moments.axis_index(a), c) for a, c in self.coeffs]
        var = 0.0
        for i, ci in idx:
            for j, cj in idx:
                if ci * cj != 0.0:
                    var += ci * cj * moments.cov_value(i, j)
        return var

    def matrix(self, context: "OperatorContext") -> np.ndarray:
        out = np.zeros((context.dim, context.dim), dtype=complex)
        for a, c in self.coeffs:
            out = out + context.matrix(a).entries * c
        return out

    def scaled(self, factor: float) -> "OperatorRole":
        lo, hi = self.bounds.lambda_min * factor, self.bounds.lambda_max * factor
        if factor < 0:
            lo, hi = hi, lo
        bounds = SpectralBounds(lo, hi, self.bounds.exact)
        return OperatorRole(
            tuple((a, c * factor) for a, c in self.coeffs), bounds, self.label
        )


@dataclass(frozen=True)
class ConstantVariance:
    """A nonnegative constant entering the criterion as a variance."""

    value: float

    def __post_init__(self):
        if self.value < 0:
            raise ValidationError("constant variance terms must be nonnegative")


Role = Union[OperatorRole, ConstantVariance]


@dataclass(frozen=True)
class SumCriterion:
    variance_terms: tuple[OperatorRole, ...]
    offset: OperatorRole
    constant_variance_terms: tuple[float, ...] = ()

    def __post_init__(self):
        if any(c < 0 for c in self.constant_variance_terms):
            raise ValidationError("constant variance terms must be nonnegative")


@dataclass(frozen=True)
class ProductCriterion:
    o1: OperatorRole
    o2: Role
    b: OperatorRole


@dataclass(frozen=True)
class WitnessParams:
    """Shift parameters s_k (one per variance term) and tangent t >= 0."""

    s: tuple[float, ...]
    t: float | None = None

    def __post_init__(self):
        if self.t is not None and self.t < 0:
            raise ValidationError("tangent parameter t must be nonnegative")


@dataclass(frozen=True)
class SpectralConstants:
    """Normalizers derived from spectral bounds; m_t is the tangent variant."""

    n: float
    m: float
    m_t: float | None = None


@dataclass(frozen=True, eq=False)
class OperatorContext:
    """Explicit matrices for moment-axis labels, on one common space.

    dims lists the local factor dimensions of the separability cut used by
    product-state searches on this space.
    """

    matrices: Mapping[str, HermitianOperator]
    dims: tuple[int, ...]

    def matrix(self, label: str) -> HermitianOperator:
        try:
            return self.matrices[label]
        except KeyError:
            raise ValidationError(f"context has no matrix for axis {label!r}")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


def dicke_context(n: int) -> OperatorContext:
    """Collective spins on the (N+1)-dimensional symmetric sector."""
    mats = {a: collective_spin(n, a) for a in ("x", "y", "z")}
    return OperatorContext(mats, (n + 1,))


def qubit_context(n: int) -> OperatorContext:
    """Collective spins on the full 2^N space, cut into single atoms."""
    mats = {a: collective_spin_embedded(n, a) for a in ("x", "y", "z")}
    return OperatorContext(mats, (2,) * n)


def bipartite_dicke_context(n_a: int, n_b: int) -> OperatorContext:
    """Regional collective spins on Dicke_A x Dicke_B, cut at A|B."""
    da, db = n_a + 1, n_b + 1
    dims = [da, db]
    mats = {}
    for a in ("x", "y", "z"):
        mats[a + "A"] = tensor_embed([collective_spin(n_a, a)], [0], dims)
        mats[a + "B"] = tensor_embed([collective_spin(n_b, a)], [1], dims)
    return OperatorContext(mats, (da, db))


def bipartite_qubit_context(n_a: int, n_b: int) -> OperatorContext:
    """Regional collective spins on the full qubit space, cut at A|B."""
    n = n_a + n_b
    dims = [2] * n
    half = {a: HermitianOperator(0.5 * np.array(p))
            for a, p in (("x", [[0, 1], [1, 0]]),
                         ("y", [[0, -1j], [1j, 0]]),
                         ("z", [[1, 0], [0, -1]]))}
    mats = {}
    for a in ("x", "y", "z"):
        for region, sites in (("A", range(n_a)), ("B", range(n_a, n))):
            total = np.zeros((2**n, 2**n), dtype=complex)
            for site in sites:
                total += tensor_embed([half[a]], [site], dims).entries
            mats[a + region] = HermitianOperator(total)
    return OperatorContext(mats, (2**n_a, 2**n_b))


# ---------------------------------------------------------------------------
# Criterion evaluation


def sum_value(criterion: SumCriterion, moments) -> float:
    """S = sum_k Var(O_k) + sum(constants) - <B> for the given moments."""
    total = sum(term.variance(moments) for term in criterion.variance_terms)
    total += sum(criterion.constant_variance_terms)
    return total - criterion.offset.mean(moments)


def product_value(criterion: ProductCriterion, moments) -> float:
    """U^2 = Var(O_1) Var(O_2) / <B>^2; values below 1 flag entanglement."""
    b_mean = criterion.b.mean(moments)
    if b_mean == 0.0:
        raise DegenerateCriterionError("criterion is degenerate: <B> = 0")
    v1 = criterion.o1.variance(moments)
    v2 = _o2_variance(criterion, moments)
    if v2 == 0.0:
        # Zero second variance with <B> != 0: maximal violation signal.
        return 0.0
    return v1 * v2 / b_mean**2


def _o2_variance(criterion: ProductCriterion, moments) -> float:
    if isinstance(criterion.o2, ConstantVariance):
        return criterion.o2.value
    return criterion.o2.variance(moments)


def tangent_sum_criterion(criterion: ProductCriterion, t: float) -> SumCriterion:
    """Sum-form tangent S_t = Var(O1) + 4 t^2 Var(O2) - 4 t <B> of a product criterion."""
    if t < 0:
        raise ValidationError("tangent parameter t must be nonnegative")
    if isinstance(criterion.o2, ConstantVariance):
        terms = (criterion.o1,)
        constants = (4 * t * t * criterion.o2.value,)
    else:
        terms = (criterion.o1, criterion.o2.scaled(2 * t))
        constants = ()
    return SumCriterion(terms, criterion.b.scaled(4 * t), constants)


def optimal_shifts(criterion, moments) -> WitnessParams:
    """Variance-minimizing shifts s_k = <O_k>, clamped to the spectrum.

    Shifts whose means were not measured come back as NaN; the bound values
    never need them, only witness materialization does (and refuses NaN).
    """
    if isinstance(criterion, SumCriterion):
        roles = criterion.variance_terms
    else:
        roles = (criterion.o1,) + (
            () if isinstance(criterion.o2, ConstantVariance) else (criterion.o2,)
        )
    s = []
    for role in roles:
        try:
            val = role.mean(moments)
        except UnmeasuredMomentError:
            s.append(math.nan)
            continue
        s.append(min(max(val, role.bounds.lambda_min), role.bounds.lambda_max))
    return WitnessParams(tuple(s))


# ---------------------------------------------------------------------------
# Spectral constants


def variance_cap(bounds: SpectralBounds) -> float:
    """Largest variance any state can have for an operator with these bounds.

    This is the sharp Popoviciu cap ((max-min)/2)^2.
    """
    return ((bounds.lambda_max - bounds.lambda_min) / 2) ** 2


def _role_cap(role: Role) -> float:
    if isinstance(role, ConstantVariance):
        return role.value
    return variance_cap(role.bounds)


def spectral_constants(criterion, t: float | None = None) -> SpectralConstants:
    """Normalizers n, m (and m_t for product criteria at tangent t).

    n = lambda_max(B); m = sum of per-term variance caps - lambda_min(B);
    m_t = v_1 + 4 t^2 v_2 - 4 t lambda_min(B).
    """
    if isinstance(criterion, SumCriterion):
        n = criterion.offset.bounds.lambda_max
        m = (
            sum(_role_cap(r) for r in criterion.variance_terms)
            + sum(criterion.constant_variance_terms)
            - criterion.offset.bounds.lambda_min
        )
        return SpectralConstants(n, m, None)
    if isinstance(criterion, ProductCriterion):
        n = criterion.b.bounds.lambda_max
        v1 = _role_cap(criterion.o1)
        v2 = _role_cap(criterion.o2)
        m = v1 + v2 - criterion.b.bounds.lambda_min
        m_t = None
        if t is not None:
            if t < 0:
                raise ValidationError("tangent parameter t must be nonnegative")
            m_t = v1 + 4 * t * t * v2 - 4 * t * criterion.b.bounds.lambda_min
        return SpectralConstants(n, m, m_t)
    raise ValidationError(f"unsupported criterion type {type(criterion).__name__}")


def require_bsa_normalizer(constants: SpectralConstants) -> float:
    if constants.n <= 0:
        raise NormalizationError(
            f"lambda_max(B) = {constants.n} <= 0: criterion unusable for BSA normalization"
        )
    return constants.n


# ---------------------------------------------------------------------------
# Witness materialization (oracle scale)


def witness_sum(
    criterion: SumCriterion, params: WitnessParams, context: OperatorContext
) -> HermitianOperator:
    """W(s) = sum_k (O_k - s_k)^2 + sum(constants) 1 - B as an explicit matrix."""
    if len(params.s) != len(criterion.variance_terms):
        raise ValidationError(
            f"expected {len(criterion.variance_terms)} shifts, got {len(params.s)}"
        )
    if any(not math.isfinite(s) for s in params.s):
        raise ValidationError("cannot materialize a witness from NaN shifts")
    dim = context.dim
    eye = np.eye(dim)
    w = np.zeros((dim, dim), dtype=complex)
    for role, s in zip(criterion.variance_terms, params.s):
        shifted = role.matrix(context) - s * eye
        w += shifted @ shifted
    w += sum(criterion.constant_variance_terms) * eye
    w -= criterion.offset.matrix(context)
    return _hermitize(w)


def witness_product(
    criterion: ProductCriterion, params: WitnessParams, context: OperatorContext
) -> HermitianOperator:
    """W(s,t) = (O1 - s1)^2 + 4t^2 (O2 - s2)^2 - 4t B.

    A constant-variance O2 contributes 4 t^2 value * identity (no shift).
    """
    if params.t is None:
        raise ValidationError("product witness needs a tangent parameter t")
    if any(not math.isfinite(s) for s in params.s):
        raise ValidationError("cannot materialize a witness from NaN shifts")
    t = params.t
    dim = context.dim
    eye = np.eye(dim)
    shifted1 = criterion.o1.matrix(context) - params.s[0] * eye
    w = shifted1 @ shifted1
    if isinstance(criterion.o2, ConstantVariance):
        if len(params.s) != 1:
            raise ValidationError("constant-variance O2 takes no shift parameter")
        w = w + 4 * t * t * criterion.o2.value * eye
    else:
        if len(params.s) != 2:
            raise ValidationError("expected shifts (s1, s2)")
        shifted2 = criterion.o2.matrix(context) - params.s[1] * eye
        w = w + 4 * t * t * (shifted2 @ shifted2)
    w = w - 4 * t * criterion.b.matrix(context)
    return _hermitize(w)


# ---------------------------------------------------------------------------
# Shipped criterion families


def wineland_criterion(n_particles: float) -> ProductCriterion:
    """Spin-squeezing criterion U^2 = xi^2 = N Var(J_z) / <J_x>^2.

    The particle number N plays the role of Var(O_2); B = J_x.
    """
    if n_particles <= 0:
        raise ValidationError("n_particles must be positive")
    half = n_particles / 2
    spin = SpectralBounds(-half, half, exact=True)
    o1 = OperatorRole.from_mapping({"z": 1.0}, spin, "J_z")
    b = OperatorRole.from_mapping({"x": 1.0}, spin, "J_x")
    return ProductCriterion(o1, ConstantVariance(float(n_particles)), b)


def giovannetti_criterion(
    n_a: float,
    n_b: float,
    g_z: float,
    g_y: float,
    sign_a: float = 1.0,
    sign_b: float = 1.0,
) -> ProductCriterion:
    """Two-ensemble product criterion with gains (g_z, g_y).

    O1 = g_z J_z^A + J_z^B, O2 = g_y J_y^A + J_y^B and
    B = (|g_z g_y| sign_a J_x^A + sign_b J_x^B)/2, so that with
    sign_{a,b} = sgn<J_x^{A,B}> the expectation <B> matches the
    denominator (|g_z g_y| |<J_x^A>| + |<J_x^B>|)/2.
    """
    if n_a <= 0 or n_b <= 0:
        raise ValidationError("regional atom numbers must be positive")
    if sign_a not in (-1.0, 1.0) or sign_b not in (-1.0, 1.0):
        raise ValidationError("sign_a and sign_b must be +-1")
    gg = abs(g_z * g_y)
    o1_half = (abs(g_z) * n_a + n_b) / 2
    o2_half = (abs(g_y) * n_a + n_b) / 2
    b_half = (gg * n_a + n_b) / 4
    o1 = OperatorRole.from_mapping(
        {"zA": g_z, "zB": 1.0}, SpectralBounds(-o1_half, o1_half, exact=True), "gz*JzA+JzB"
    )
    o2 = OperatorRole.from_mapping(
        {"yA": g_y, "yB": 1.0}, SpectralBounds(-o2_half, o2_half, exact=True), "gy*JyA+JyB"
    )
    b = OperatorRole.from_mapping(
        {"xA": gg * sign_a / 2, "xB": sign_b / 2},
        SpectralBounds(-b_half, b_half, exact=True),
        "B",
    )
    return ProductCriterion(o1, o2, b)


# ---------------------------------------------------------------------------
# Criterion configuration (JSON-shaped mappings)


def _role_from_config(obj, name: str) -> Role:
    if not isinstance(obj, dict):
        raise ValidationError(f"criterion role {name!r} must be an object")
    if "constant" in obj:
        return ConstantVariance(float(obj["constant"]))
    try:
        coeffs = obj["coeffs"]
        bounds = SpectralBounds(float(obj["lambda_min"]), float(obj["lambda_max"]))
    except KeyError as exc:
        raise ValidationError(f"criterion role {name!r} is missing field {exc}")
    return OperatorRole.from_mapping(coeffs, bounds, obj.get("label", name))


def criterion_from_config(config: dict):
    """Build a criterion from its JSON configuration object."""
    if not isinstance(config, dict):
        raise ValidationError("criterion configuration must be an object")
    kind = config.get("kind")
    if kind == "wineland":
        return wineland_criterion(float(config["n_particles"]))
    if kind == "giovannetti":
        return giovannetti_criterion(
            float(config["n_A"]),
            float(config["n_B"]),
            float(config.get("g_z", 1.0)),
            float(config.get("g_y", 1.0)),
            float(config.get("sign_A", 1.0)),
            float(config.get("sign_B", 1.0)),
        )
    if kind == "custom":
        form = config.get("form")
        if form == "sum":
            terms = tuple(
                _role_from_config(r, f"terms[{i}]")
                for i, r in enumerate(config.get("terms", []))
            )
            if not all(isinstance(r, OperatorRole) for r in terms):
                raise ValidationError("sum criterion variance terms must be operator roles")
            offset = _role_from_config(config["offset"], "offset")
            constants = tuple(float(c) for c in config.get("constants", []))
            return SumCriterion(terms, offset, constants)
        if form == "product":
            o1 = _role_from_config(config["o1"], "o1")
            o2 = _role_from_config(config["o2"], "o2")
            b = _role_from_config(config["b"], "b")
            if not isinstance(o1, OperatorRole) or not isinstance(b, OperatorRole):
                raise ValidationError("o1 and b must be operator roles")
            return ProductCriterion(o1, o2, b)
        raise ValidationError(f"custom criterion form must be sum or product, got {form!r}")
    raise ValidationError(f"criterion kind must be wineland, giovannetti or custom, got {kind!r}")
