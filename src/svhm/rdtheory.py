"""Finite-alphabet rate-distortion lab for conditional vs. residual coding.

Everything here is exact, discrete and numpy-based: entropies, mutual
informations, a slope-parameterized Blahut-Arimoto solver, and the
verification sweeps that compare conditional coding of the prediction
residual (given the predictor) against plain residual coding.

Slope convention: a point at slope ``s`` minimizes the Lagrangian
``distortion + s * rate_bits``.  ``s = 0`` is the lossless end (rate pays
nothing, distortion is driven to its minimum), ``s -> inf`` is the
zero-rate end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LN2 = np.log(2.0)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 100_000
# Relative mass below which Blahut-Arimoto treats a reproduction letter as
# leaving the support: the SQUAREM step floors letters there, and the active
# set prunes letters under it whose multiplier is below 1.
_SUPPORT_FLOOR = 1e-4


class DistributionError(ValueError):
    """Raised for vectors/matrices that fail normalization or sign checks."""


class ConvergenceError(RuntimeError):
    """Blahut-Arimoto failed to converge; carries the best iterate found."""

    def __init__(self, message: str, best: "RDPoint"):
        super().__init__(message)
        self.best = best


def _as_prob_vector(p, tol: float = 1e-9) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DistributionError("probability vector must be 1-D and non-empty")
    if np.any(p < 0):
        raise DistributionError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > tol:
        raise DistributionError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def entropy(p) -> float:
    """Shannon entropy in bits, with 0*log(0) == 0."""
    p = _as_prob_vector(p)
    nz = p[p > 0]
    return float(max(0.0, -np.sum(nz * np.log2(nz))))


@dataclass
class DiscreteJointSource:
    """Joint pmf over two finite real-valued alphabets (X rows, Y columns)."""

    x_alphabet: np.ndarray
    y_alphabet: np.ndarray
    pmf: np.ndarray

    def __post_init__(self):
        self.x_alphabet = np.asarray(self.x_alphabet, dtype=np.float64)
        self.y_alphabet = np.asarray(self.y_alphabet, dtype=np.float64)
        self.pmf = np.asarray(self.pmf, dtype=np.float64)
        if self.pmf.shape != (self.x_alphabet.size, self.y_alphabet.size):
            raise DistributionError("pmf shape does not match alphabet sizes")
        for name, a in (("x", self.x_alphabet), ("y", self.y_alphabet)):
            if a.size == 0 or np.any(np.diff(a) <= 0):
                raise DistributionError(f"{name}_alphabet must be strictly ascending")
        if np.any(self.pmf < 0):
            raise DistributionError("joint pmf entries must be non-negative")
        if abs(self.pmf.sum() - 1.0) > 1e-12:
            raise DistributionError(f"joint pmf sums to {self.pmf.sum()!r}, not 1")

    def marginal_x(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


@dataclass
class DistortionMatrix:
    """Per-pair distortion d(source symbol, reconstruction symbol); the
    constructors reconstruct over the source alphabet."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DistributionError("distortion matrix must be 2-D")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DistributionError("distortions must be finite and non-negative")

    @classmethod
    def squared_error(cls, alphabet):
        a = np.asarray(alphabet, dtype=np.float64)
        return cls((a[:, None] - a[None, :]) ** 2)

    @classmethod
    def hamming(cls, alphabet):
        a = np.asarray(alphabet, dtype=np.float64)
        return cls((np.abs(a[:, None] - a[None, :]) > 1e-12).astype(np.float64))


@dataclass
class Channel:
    """Row-stochastic conditional pmf p(reconstruction | source)."""

    pmf: np.ndarray

    def __post_init__(self):
        self.pmf = np.asarray(self.pmf, dtype=np.float64)
        if self.pmf.ndim != 2:
            raise DistributionError("channel pmf must be 2-D")
        if np.any(self.pmf < 0):
            raise DistributionError("channel entries must be non-negative")
        if np.any(np.abs(self.pmf.sum(axis=1) - 1.0) > 1e-12):
            raise DistributionError("channel rows must each sum to 1")


@dataclass(frozen=True)
class RDPoint:
    rate: float        # bits per source symbol
    distortion: float  # expected distortion
    slope: float       # Lagrangian weight on rate
    iterations: int = 0  # Blahut-Arimoto map evaluations spent
    gap: float = 0.0     # certified bound on the Lagrangian's excess over the optimum


@dataclass
class MarkovChainSpec:
    """Source distribution plus the channel cascade X -> Y -> Xhat -> V."""

    p_x: np.ndarray
    channels: list = field(default_factory=list)

    def __post_init__(self):
        self.p_x = _as_prob_vector(self.p_x, tol=1e-9)
        self.channels = [c if isinstance(c, Channel) else Channel(c) for c in self.channels]
        n = self.p_x.size
        for c in self.channels:
            if c.pmf.shape[0] != n:
                raise DistributionError("channel dimensions do not compose")
            n = c.pmf.shape[1]


def conditional_entropy(j: DiscreteJointSource) -> float:
    """H(X|Y) in bits."""
    p_y = j.marginal_y()
    h = 0.0
    for k in range(p_y.size):
        if p_y[k] <= 0:
            continue
        h += p_y[k] * entropy(j.pmf[:, k] / p_y[k])
    return float(max(0.0, h))


def mutual_information_from_pmf(pmf: np.ndarray) -> float:
    """I between the row and column variables of a joint pmf, in bits."""
    pmf = np.asarray(pmf, dtype=np.float64)
    px = pmf.sum(axis=1)
    py = pmf.sum(axis=0)
    mask = pmf > 0
    outer = np.outer(px, py)
    mi = np.sum(pmf[mask] * np.log2(pmf[mask] / outer[mask]))
    return float(max(0.0, mi))


def mutual_information(j: DiscreteJointSource) -> float:
    return mutual_information_from_pmf(j.pmf)


def _residual_index(j: DiscreteJointSource) -> tuple[np.ndarray, np.ndarray]:
    """Sorted alphabet of Z = X - Y (colliding differences merged) and the
    index into it of each (x, y) pair, shaped like ``j.pmf``."""
    z_alpha, idx = np.unique(np.round(j.x_alphabet[:, None] - j.y_alphabet[None, :], 9),
                             return_inverse=True)
    return z_alpha, idx.reshape(j.pmf.shape)


def residual_alphabet(j: DiscreteJointSource) -> np.ndarray:
    return _residual_index(j)[0]


def residual_distribution(j: DiscreteJointSource) -> tuple[np.ndarray, np.ndarray]:
    """Distribution of Z = X - Y; returns (z_alphabet, probabilities)."""
    z_alpha, idx = _residual_index(j)
    return z_alpha, np.bincount(idx.ravel(), j.pmf.ravel(), z_alpha.size)


@dataclass(frozen=True)
class LosslessBoundReport:
    h_cond: float
    h_res: float
    holds: bool


def verify_lossless_bound(j: DiscreteJointSource, tol: float = 1e-9) -> LosslessBoundReport:
    """Check H(X|Y) <= H(X - Y)."""
    h_cond = conditional_entropy(j)
    _, pz = residual_distribution(j)
    h_res = entropy(pz)
    return LosslessBoundReport(h_cond, h_res, h_cond <= h_res + tol)


def _min_distortion_point(p: np.ndarray, d: DistortionMatrix) -> RDPoint:
    # Deterministic channel: each source symbol maps to its min-distortion
    # reconstruction (first index on ties).  Rate is H of the image.
    choice = np.argmin(d.values, axis=1)
    active = p > 0
    dist = float(np.sum(p[active] * d.values[active, choice[active]]))
    image = np.zeros(d.values.shape[1])
    np.add.at(image, choice[active], p[active])
    return RDPoint(rate=entropy(image), distortion=dist, slope=0.0)


def blahut_arimoto(
    p,
    d: DistortionMatrix,
    slope: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RDPoint:
    """Alternating minimization of ``distortion + slope * rate`` over channels.

    Blahut-Arimoto's fixed-point map on the reconstruction marginal,
    accelerated by SQUAREM (Varadhan & Roland, Scand. J. Statist. 35(2),
    2008).  It stops only when Blahut's certified bound on the gap between
    the returned point's Lagrangian and the optimum is below ``tol``; that
    bound is returned as ``gap`` and the number of map evaluations as
    ``iterations``.  Returns a point on the lower convex envelope of R(D) for
    the given slope.  Raises :class:`ConvergenceError` (carrying the best
    iterate) if ``max_iters`` map evaluations do not certify the gap.

    At the optimum every multiplier satisfies t_y <= 1, with equality on the
    support (Blahut 1972), and the map multiplies q_y by t_y, so a letter
    leaving the support decays only geometrically.  The loop therefore keeps
    an active set: a letter whose mass is below ``_SUPPORT_FLOOR`` times the
    largest and whose multiplier is below 1 is set to exactly 0, and a
    zeroed letter whose multiplier rises above 1 is revived at that floor.
    Each letter is pruned at most once, so the loop cannot cycle: after the
    last prune it is plain SQUAREM.  The multipliers cover every letter, so
    a wrongly pruned one holds the certified gap up until it is revived.
    """
    p = _as_prob_vector(p, tol=1e-9)
    if slope < 0:
        raise ValueError("slope must be non-negative")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if d.values.shape[0] != p.size:
        raise DistributionError("distortion matrix row count != source alphabet size")
    if slope == 0:
        return _min_distortion_point(p, d)

    active = p > 0
    pa = p[active]
    rho = d.values[active, :]
    lam = _LN2 / slope  # nats-per-distortion multiplier for this slope

    n_rec = rho.shape[1]
    w = np.exp(np.maximum(-lam * rho, -745.0))  # Boltzmann kernel, underflow-safe

    def normalizers(q):
        return np.maximum(w @ q, 1e-300)

    def multipliers(f):
        # BA's map is q -> q * t; log(max t) / lam bounds F(q) - F(q*) from
        # above (Blahut 1972), where F(q) = -sum p log(w @ q) / lam is the
        # Lagrangian of the channel proportional to w * q.
        t = (pa / f) @ w
        return t, math.log(max(float(t.max()), 1e-300)) / lam

    # SQUAREM cycle: two map evaluations q -> q1 -> q2, then the step
    # q - 2 a r + a^2 v with a = min(-|r|/|v|, -1).  The extrapolated point is
    # floored at _SUPPORT_FLOOR * q2, so letters leaving the support fall fast
    # but never to zero, where the multiplicative map could not revive them;
    # only the active set zeroes a letter.  One more map evaluation
    # stabilizes the point (it damps the fast modes the step excites, which
    # otherwise shrink the next step); the result is kept only if F does not
    # rise against q2.  Before each cycle the active set prunes dying letters
    # to exactly 0 (each at most once) and revives zeroed letters with t > 1;
    # that costs one map evaluation.  The loop stops on the certified gap
    # alone.
    q = np.full(n_rec, 1.0 / n_rec)
    f = normalizers(q)
    t, gap = multipliers(f)
    evals = 1
    pruned = np.zeros(n_rec, dtype=bool)
    while gap >= tol and evals < max_iters:
        floor = _SUPPORT_FLOOR * q.max()
        dead = (q < floor) & (t < 1.0) & ~pruned
        revive = (q == 0.0) & (t > 1.0)
        if dead.any() or revive.any():
            pruned |= dead
            q = np.where(dead, 0.0, np.where(revive, floor, q))
            q /= q.sum()
            f = normalizers(q)
            t, gap = multipliers(f)
            evals += 1
            if gap < tol or evals >= max_iters:
                break
        q1 = q * t
        f1 = normalizers(q1)
        t1, gap1 = multipliers(f1)
        evals += 1
        if gap1 < tol or evals + 2 > max_iters:  # a cycle spends up to 2 more
            q, f, gap = q1, f1, gap1
            break
        q2 = q1 * t1
        f2 = normalizers(q2)
        r = q1 - q
        v = q2 - q1 - r
        vv = float(v @ v)
        alpha = min(-math.sqrt(float(r @ r) / vv), -1.0) if vv > 0 else -1.0
        if alpha < -1.0:
            qx = np.maximum(q - 2.0 * alpha * r + alpha * alpha * v,
                            _SUPPORT_FLOOR * q2)
            qx /= qx.sum()
            qx = qx * multipliers(normalizers(qx))[0]
            evals += 1
            fx = normalizers(qx)
            if pa @ np.log(fx / f2) >= 0.0:
                q2, f2 = qx, fx
        q, f = q2, f2
        t, gap = multipliers(f)
        evals += 1

    q_cond = (w / f[:, None]) * q[None, :]
    q_cond /= q_cond.sum(axis=1, keepdims=True)
    q_marg = pa @ q_cond
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(q_cond > 0, q_cond / np.maximum(q_marg[None, :], 1e-300), 1.0)
        info = np.where(q_cond > 0, q_cond * np.log(ratio), 0.0)
    rate = max(0.0, float(pa @ info.sum(axis=1)) / _LN2)
    distortion = float(np.sum(pa[:, None] * q_cond * rho))
    best = RDPoint(rate=rate, distortion=distortion, slope=slope,
                   iterations=evals, gap=gap)
    if gap < tol:
        return best
    raise ConvergenceError(
        f"Blahut-Arimoto did not certify a gap below {tol:g} within "
        f"{max_iters} map evaluations (gap {gap:.3g})", best
    )


def lagrangian_cost(point: RDPoint) -> float:
    return point.distortion + point.slope * point.rate


def residual_rd(
    j: DiscreteJointSource,
    d: DistortionMatrix,
    slope: float,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RDPoint:
    """R-D point for coding Z = X - Y unconditionally.

    ``d`` is supplied over the residual alphabet (rows ordered like
    :func:`residual_alphabet`); by shift invariance, the returned distortion
    equals the input-domain distortion.
    """
    _, pz = residual_distribution(j)
    return blahut_arimoto(pz, d, slope, max_iters=max_iters)


def conditional_rd(
    j: DiscreteJointSource,
    d: DistortionMatrix,
    slope: float,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> RDPoint:
    """R-D point for coding Z = X - Y conditioned on Y.

    At fixed slope the Lagrangian separates per y-context: each conditional
    distribution p(Z | Y = y) is solved at the same slope and the results are
    mixed with weights p(y).  So is the certified gap, which makes the
    p(y)-weighted gap a bound for the mixture; iterations are summed.
    """
    z_alpha, idx = _residual_index(j)
    if d.values.shape[0] != z_alpha.size:
        raise DistributionError("distortion matrix row count != residual alphabet size")
    p_y = j.marginal_y()

    rate = distortion = gap = 0.0
    iterations = 0
    for k in range(p_y.size):
        if p_y[k] <= 0:
            continue
        pz_given_y = np.bincount(idx[:, k], j.pmf[:, k] / p_y[k], z_alpha.size)
        pt = blahut_arimoto(pz_given_y, d, slope, max_iters=max_iters)
        rate += p_y[k] * pt.rate
        distortion += p_y[k] * pt.distortion
        gap += p_y[k] * pt.gap
        iterations += pt.iterations
    return RDPoint(rate=float(rate), distortion=float(distortion), slope=slope,
                   iterations=iterations, gap=float(gap))


@dataclass(frozen=True)
class SlopeComparison:
    slope: float
    r_c: RDPoint
    r_r: RDPoint
    holds: bool
    margin: float  # residual cost minus conditional cost (>= -tol when holds)


def verify_rd_inequality(
    j: DiscreteJointSource,
    d: DistortionMatrix,
    slopes,
    tol: float = 1e-6,
    ba_max_iters: int = DEFAULT_MAX_ITERS,
) -> list[SlopeComparison]:
    """Compare conditional vs. residual Lagrangian costs at matched slopes.

    The comparison is done on the convex envelope, cost = D + slope * R: the
    conditional minimization runs over a superset of channels, so its cost can
    never exceed the residual one.  The inner solver runs to ``DEFAULT_TOL``
    within ``ba_max_iters`` map evaluations; slopes near a support-shrinking
    transition converge slowly and may need more than the default budget.
    """
    slopes = list(slopes)
    if not slopes:
        raise ValueError("at least one slope is required")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    out = []
    for s in slopes:
        pc = conditional_rd(j, d, s, max_iters=ba_max_iters)
        pr = residual_rd(j, d, s, max_iters=ba_max_iters)
        margin = lagrangian_cost(pr) - lagrangian_cost(pc)
        out.append(SlopeComparison(s, pc, pr, margin >= -tol, margin))
    return out


@dataclass(frozen=True)
class DPIReport:
    i_yxhat: float
    i_yv: float
    holds: bool


def verify_dpi(chain: MarkovChainSpec, tol: float = 1e-9) -> DPIReport:
    """Data-processing inequality I(Y; Xhat) >= I(Y; V) along the chain."""
    if len(chain.channels) != 3:
        raise DistributionError("chain needs exactly three channels (X->Y->Xhat->V)")
    a, b, c = (ch.pmf for ch in chain.channels)
    p_y = chain.p_x @ a
    joint_y_xhat = p_y[:, None] * b
    joint_y_v = p_y[:, None] * (b @ c)
    i_yxhat = mutual_information_from_pmf(joint_y_xhat)
    i_yv = mutual_information_from_pmf(joint_y_v)
    return DPIReport(i_yxhat, i_yv, i_yxhat >= i_yv - tol)


def random_joint(rng: np.random.Generator) -> DiscreteJointSource:
    """Seeded random joint source: 2..8 letters of X from -8..8, 1..4 of Y
    from -4..4."""
    nx = int(rng.integers(2, 9))
    ny = int(rng.integers(1, 5))
    x_alpha = np.sort(rng.choice(np.arange(-8, 9), size=nx, replace=False)).astype(float)
    y_alpha = np.sort(rng.choice(np.arange(-4, 5), size=ny, replace=False)).astype(float)
    pmf = rng.random((nx, ny)) + 1e-3
    pmf /= pmf.sum()
    # Renormalize exactly: push rounding residue onto the largest entry.
    residue = 1.0 - pmf.sum()
    pmf.flat[np.argmax(pmf)] += residue
    return DiscreteJointSource(x_alpha, y_alpha, pmf)

