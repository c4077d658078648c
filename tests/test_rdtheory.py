"""Unit and property tests for the discrete rate-distortion lab."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svhm import rdtheory as rd


def uniform_binary_independent():
    """X uniform on {0,1} independent of Y uniform on {0,1}."""
    return rd.DiscreteJointSource([0.0, 1.0], [0.0, 1.0], np.full((2, 2), 0.25))


def diagonal_joint(n=4):
    """X = Y uniform on 0..n-1."""
    a = np.arange(n, dtype=float)
    return rd.DiscreteJointSource(a, a, np.eye(n) / n)


# ---------------------------------------------------------------------------
# Entropies and information measures
# ---------------------------------------------------------------------------

class TestEntropy:
    def test_uniform_binary(self):
        assert rd.entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        assert rd.entropy([1.0]) == 0.0

    def test_direct_summation(self):
        assert rd.entropy([0.25, 0.5, 0.25]) == pytest.approx(1.5, abs=1e-12)

    def test_rejects_bad_vectors(self):
        with pytest.raises(rd.DistributionError):
            rd.entropy([0.5, 0.6])
        with pytest.raises(rd.DistributionError):
            rd.entropy([-0.1, 1.1])
        with pytest.raises(rd.DistributionError):
            rd.entropy([])

    @given(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=12))
    def test_nonnegative_and_bounded(self, weights):
        p = np.array(weights) / sum(weights)
        p[np.argmax(p)] += 1.0 - p.sum()
        h = rd.entropy(p)
        assert 0.0 <= h <= math.log2(p.size) + 1e-9


class TestConditionalEntropyAndMI:
    def test_diagonal_zero(self):
        assert rd.conditional_entropy(diagonal_joint()) == pytest.approx(0.0, abs=1e-12)

    def test_independent_uniform(self):
        assert rd.conditional_entropy(uniform_binary_independent()) == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_3x3(self):
        rng = np.random.default_rng(11)
        pmf = rng.random((3, 3))
        pmf /= pmf.sum()
        pmf.flat[np.argmax(pmf)] += 1.0 - pmf.sum()
        j = rd.DiscreteJointSource([0, 1, 2], [0, 1, 2], pmf)
        p_y = pmf.sum(axis=0)
        brute = sum(
            pmf[i, k] * math.log2(p_y[k] / pmf[i, k])
            for i in range(3) for k in range(3) if pmf[i, k] > 0
        )
        assert rd.conditional_entropy(j) == pytest.approx(brute, abs=1e-12)

    def test_mi_independent_zero(self):
        assert rd.mutual_information(uniform_binary_independent()) == pytest.approx(0.0, abs=1e-12)

    def test_mi_identity_channel(self):
        j = diagonal_joint(2)
        assert rd.mutual_information(j) == pytest.approx(1.0, abs=1e-12)

    def test_mi_second_formula(self):
        rng = np.random.default_rng(3)
        pmf = rng.random((4, 3))
        pmf /= pmf.sum()
        pmf.flat[np.argmax(pmf)] += 1.0 - pmf.sum()
        j = rd.DiscreteJointSource([0, 1, 2, 3], [0, 1, 2], pmf)
        hx = rd.entropy(j.marginal_x())
        hy = rd.entropy(j.marginal_y())
        hxy = rd.entropy(pmf.ravel())
        assert rd.mutual_information(j) == pytest.approx(hx + hy - hxy, abs=1e-9)

    def test_conditional_le_marginal_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            j = rd.random_joint(rng)
            assert rd.conditional_entropy(j) <= rd.entropy(j.marginal_x()) + 1e-9


# ---------------------------------------------------------------------------
# Residual distribution and the lossless bound
# ---------------------------------------------------------------------------

class TestResidual:
    def test_x_equals_y_point_mass(self):
        za, pz = rd.residual_distribution(diagonal_joint())
        at_zero = pz[np.searchsorted(za, 0.0)]
        assert at_zero == pytest.approx(1.0, abs=1e-12)

    def test_independent_uniform_binary(self):
        za, pz = rd.residual_distribution(uniform_binary_independent())
        assert np.array_equal(za, [-1.0, 0.0, 1.0])
        assert np.allclose(pz, [0.25, 0.5, 0.25])

    def test_singleton_y_shift(self):
        j = rd.DiscreteJointSource([0.0, 2.0, 5.0], [3.0], [[0.2], [0.3], [0.5]])
        za, pz = rd.residual_distribution(j)
        assert np.array_equal(za, [-3.0, -1.0, 2.0])
        assert np.allclose(pz, [0.2, 0.3, 0.5])

    def test_lossless_bound_equality_case(self):
        rep = rd.verify_lossless_bound(diagonal_joint())
        assert rep.h_cond == pytest.approx(0.0, abs=1e-12)
        assert rep.h_res == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_lossless_bound_strict_case(self):
        rep = rd.verify_lossless_bound(uniform_binary_independent())
        assert rep.h_cond == pytest.approx(1.0, abs=1e-12)
        assert rep.h_res == pytest.approx(1.5, abs=1e-12)
        assert rep.holds

    def test_randomized_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            assert rd.verify_lossless_bound(rd.random_joint(rng)).holds


# ---------------------------------------------------------------------------
# Blahut-Arimoto
# ---------------------------------------------------------------------------

def binary_entropy(d):
    return -d * math.log2(d) - (1 - d) * math.log2(1 - d)


class TestBlahutArimoto:
    def test_slope_zero_lossless_end(self):
        d = rd.DistortionMatrix.hamming([0.0, 1.0])
        pt = rd.blahut_arimoto([0.5, 0.5], d, 0.0)
        assert pt.rate == pytest.approx(1.0, abs=1e-12)
        assert pt.distortion == 0.0

    @pytest.mark.parametrize("dist", [0.05, 0.1, 0.2, 0.3, 0.45])
    def test_binary_hamming_closed_form(self, dist):
        # slope 1/log2((1-D)/D) is the tangent slope of 1 - h_b(D) at D
        slope = 1.0 / math.log2((1 - dist) / dist)
        d = rd.DistortionMatrix.hamming([0.0, 1.0])
        pt = rd.blahut_arimoto([0.5, 0.5], d, slope)
        assert pt.rate == pytest.approx(1.0 - binary_entropy(dist), abs=1e-3)
        assert pt.distortion == pytest.approx(dist, abs=1e-3)

    def test_zero_rate_limit(self):
        d = rd.DistortionMatrix.squared_error([-1.0, 0.0, 2.0])
        p = [0.3, 0.5, 0.2]
        pt = rd.blahut_arimoto(p, d, 1e3, max_iters=400_000)
        best_const = min(
            float(np.dot(p, d.values[:, k])) for k in range(d.values.shape[1])
        )
        assert pt.rate < 1e-3
        assert pt.distortion == pytest.approx(best_const, abs=1e-3)

    def test_swept_points_monotone(self):
        d = rd.DistortionMatrix.squared_error([-2.0, 0.0, 1.0, 3.0])
        p = [0.1, 0.4, 0.3, 0.2]
        pts = [rd.blahut_arimoto(p, d, s) for s in np.geomspace(0.01, 50.0, 12)]
        rates = [pt.rate for pt in pts]
        dists = [pt.distortion for pt in pts]
        assert all(r2 <= r1 + 1e-9 for r1, r2 in zip(rates, rates[1:]))
        assert all(d2 >= d1 - 1e-9 for d1, d2 in zip(dists, dists[1:]))

    def test_invalid_arguments(self):
        d = rd.DistortionMatrix.hamming([0.0, 1.0])
        with pytest.raises(ValueError):
            rd.blahut_arimoto([0.5, 0.5], d, -1.0)
        with pytest.raises(ValueError):
            rd.blahut_arimoto([0.5, 0.5], d, 1.0, tol=0.0)
        with pytest.raises(rd.DistributionError):
            rd.blahut_arimoto([0.5, 0.5], rd.DistortionMatrix.hamming([0.0, 1.0, 2.0]), 1.0)

    def test_nonconvergence_carries_best(self):
        d = rd.DistortionMatrix.squared_error([-2.0, 0.0, 1.0, 3.0])
        with pytest.raises(rd.ConvergenceError) as exc:
            rd.blahut_arimoto([0.1, 0.4, 0.3, 0.2], d, 0.5, tol=1e-15, max_iters=2)
        assert isinstance(exc.value.best, rd.RDPoint)
        assert exc.value.best.rate >= 0.0
        assert exc.value.best.iterations == 2
        assert exc.value.best.gap >= 1e-15

    def test_lagrangian_within_tol_of_tight_solve(self, monkeypatch):
        # The stop is Blahut's certified gap alone, so every residual and
        # per-context solve of a criterion-1 joint lands within tol of the
        # optimum, however the support changed on the way.  A stop on
        # successive objective differences left these up to 5.2e-7 above it.
        solves = []
        solve = rd.blahut_arimoto

        def recording(p, d, slope, **kw):
            pt = solve(p, d, slope, **kw)
            solves.append((p, d, pt))
            return pt

        monkeypatch.setattr(rd, "blahut_arimoto", recording)
        rng = np.random.default_rng(2024)
        # 1.0 and 2.15 are where letters leave and rejoin the support
        slopes = [float(s) for s in np.geomspace(0.01, 10.0, 10)[-4:]]  # 1 .. 10
        for _ in range(4):
            j = rd.random_joint(rng)
            d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
            for cmp in rd.verify_rd_inequality(j, d, slopes, ba_max_iters=400_000):
                assert cmp.r_c.gap < 1e-9 and cmp.r_r.gap < 1e-9
        monkeypatch.undo()
        assert len(solves) >= 8
        for p, d, pt in solves:
            assert pt.gap < rd.DEFAULT_TOL
            ref = rd.blahut_arimoto(p, d, pt.slope, tol=1e-12, max_iters=400_000)
            assert abs(rd.lagrangian_cost(pt) - rd.lagrangian_cost(ref)) <= 1e-9

    def test_default_budget_certifies_criterion_1_slowest_joint(self):
        # Joint 33 of criterion 1's stream (8 x 3) has its slowest solve: the
        # residual at slope 10 needs 25,608 map evaluations, more than the
        # old default budget of 10,000.
        rng = np.random.default_rng(2024)
        for _ in range(34):
            j = rd.random_joint(rng)
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        slopes = [float(s) for s in np.geomspace(0.01, 10.0, 10)]
        for cmp in rd.verify_rd_inequality(j, d, slopes):
            assert cmp.holds
            assert cmp.r_c.gap < rd.DEFAULT_TOL and cmp.r_r.gap < rd.DEFAULT_TOL

    def test_dying_letters_do_not_stall_the_slowest_benchmark_solve(self):
        # The benchmark corpus's slowest solve, the residual of its first
        # 5 x 3 joint at slope 10, spent 11,327 map evaluations decaying
        # letters that leave the support.
        j = first_joint_of_shape(np.random.default_rng(2024), (5, 3))
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        pt = rd.residual_rd(j, d, 10.0)
        assert pt.gap < rd.DEFAULT_TOL
        assert pt.iterations <= 100

    def test_matches_plain_blahut_arimoto_on_the_slowest_benchmark_solve(self):
        # The plain map needs 121,959 steps to certify 1e-10 here.
        j = first_joint_of_shape(np.random.default_rng(2024), (5, 3))
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        _, pz = rd.residual_distribution(j)
        pt = rd.blahut_arimoto(pz, d, 10.0)
        assert abs(rd.lagrangian_cost(pt) - plain_blahut_arimoto(pz, d.values, 10.0)) \
            <= 2 * rd.DEFAULT_TOL

    def test_letter_creeping_back_certifies_quickly(self):
        # Joint 46 of criterion 1's stream at seed 7, slope 4.64: one context
        # solve took 45,047 map evaluations while a letter with small
        # optimal mass was pruned, revived at the floor and crept back; the
        # plain map needs 944,127 steps.
        rng = np.random.default_rng(7)
        for _ in range(47):
            j = rd.random_joint(rng)
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        slope = float(np.geomspace(0.01, 10.0, 10)[8])
        z_alpha, idx = rd._residual_index(j)
        p_y = j.marginal_y()
        contexts = [np.bincount(idx[:, k], j.pmf[:, k] / p_y[k], z_alpha.size)
                    for k in range(p_y.size)]
        for p in contexts + [rd.residual_distribution(j)[1]]:
            assert rd.blahut_arimoto(p, d, slope, max_iters=200).gap < rd.DEFAULT_TOL

    def test_budget_is_never_exceeded(self):
        # Every budget short of the 24 evaluations this solve needs ends in
        # ConvergenceError, most of them inside the Newton finish.
        j = first_joint_of_shape(np.random.default_rng(2024), (5, 3))
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        _, pz = rd.residual_distribution(j)
        needed = rd.blahut_arimoto(pz, d, 10.0).iterations
        assert needed > 15
        for budget in range(1, needed):
            with pytest.raises(rd.ConvergenceError) as exc:
                rd.blahut_arimoto(pz, d, 10.0, max_iters=budget)
            assert exc.value.best.iterations <= budget
        assert rd.blahut_arimoto(pz, d, 10.0, max_iters=needed).iterations == needed

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_empty_budget_refused(self, max_iters):
        d = rd.DistortionMatrix.hamming([0.0, 1.0])
        with pytest.raises(ValueError, match="max_iters"):
            rd.blahut_arimoto([0.5, 0.5], d, 1.0, max_iters=max_iters)

    @pytest.mark.parametrize("slope", [1e-3, 4.64, 1e3])
    def test_duplicate_letters_certify(self, slope):
        # Two identical reproduction letters make the Newton system singular.
        v = rd.DistortionMatrix.squared_error([-2.0, 0.0, 1.0, 3.0]).values
        d = rd.DistortionMatrix(np.hstack([v, v[:, [1]]]))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            pt = rd.blahut_arimoto([0.1, 0.4, 0.3, 0.2], d, slope)
        assert pt.gap < rd.DEFAULT_TOL
        single = rd.blahut_arimoto([0.1, 0.4, 0.3, 0.2], rd.DistortionMatrix(v), slope)
        assert rd.lagrangian_cost(pt) == pytest.approx(rd.lagrangian_cost(single),
                                                       abs=2 * rd.DEFAULT_TOL)

    @pytest.mark.parametrize("p, values", [([1.0], [[0.0]]),
                                           ([0.2, 0.3, 0.5], [[1.0], [0.0], [4.0]])])
    def test_one_letter_alphabet_certifies(self, p, values):
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            pt = rd.blahut_arimoto(p, rd.DistortionMatrix(values), 1.0)
        assert pt.gap < rd.DEFAULT_TOL
        assert pt.rate == 0.0

    @pytest.mark.parametrize("slope", [1e-3, 1e3])
    def test_extreme_slopes_certify(self, slope):
        rng = np.random.default_rng(2024)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            for _ in range(10):
                j = rd.random_joint(rng)
                d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
                for cmp in rd.verify_rd_inequality(j, d, [slope]):
                    assert cmp.holds
                    assert cmp.r_c.gap < rd.DEFAULT_TOL and cmp.r_r.gap < rd.DEFAULT_TOL


def first_joint_of_shape(rng, shape):
    j = rd.random_joint(rng)
    while (j.x_alphabet.size, j.y_alphabet.size) != shape:
        j = rd.random_joint(rng)
    return j


def plain_blahut_arimoto(p, dvals, slope, gap=1e-10):
    """Lagrangian D + slope * R(bits) from Blahut's multiplicative map alone,
    run until its own certified gap is below ``gap``; a reference sharing no
    code with the solver."""
    p = np.asarray(p)
    lam = math.log(2.0) / slope
    w = np.exp(-lam * dvals)
    q = np.full(dvals.shape[1], 1.0 / dvals.shape[1])
    while True:
        t = (p / (w @ q)) @ w
        if math.log(t.max()) / lam < gap:
            break
        q = q * t
    channel = w * q
    channel /= channel.sum(axis=1, keepdims=True)
    out = p @ channel
    ratio = np.divide(channel, out, out=np.ones_like(channel), where=channel > 0)
    rate = float(p @ np.sum(channel * np.log2(ratio), axis=1))
    return float(p @ np.sum(channel * dvals, axis=1)) + slope * rate


# ---------------------------------------------------------------------------
# Residual vs conditional coding
# ---------------------------------------------------------------------------

def asymmetric_contexts_joint():
    """Z|Y=0 uniform on {0,1}, Z|Y=1 uniform on {-1,0}, Y uniform.

    Realized as X uniform {0,1} independent of Y uniform {0,1} with Z = X - Y:
    H(X|Y) = 1.0, H(X - Y) = 1.5.
    """
    return uniform_binary_independent()


class TestConditionalVsResidual:
    def test_x_equals_y_residual_zero_rate(self):
        j = diagonal_joint()
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        for s in (0.0, 0.1, 1.0):
            pt = rd.residual_rd(j, d, s)
            assert pt.rate == pytest.approx(0.0, abs=1e-9)
            assert pt.distortion == pytest.approx(0.0, abs=1e-9)

    def test_conditional_point_mixes_context_solves(self):
        j = uniform_binary_independent()
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        za = rd.residual_alphabet(j)
        contexts = [rd.blahut_arimoto(np.isin(za, z) * 0.5, d, 0.7)
                    for z in ([0.0, 1.0], [-1.0, 0.0])]
        pc = rd.conditional_rd(j, d, 0.7)
        assert pc.iterations == sum(pt.iterations for pt in contexts)
        assert pc.gap == pytest.approx(0.5 * sum(pt.gap for pt in contexts), rel=1e-12)
        assert pc.gap < rd.DEFAULT_TOL

    def test_single_context_equals_residual(self):
        j = rd.DiscreteJointSource([0.0, 2.0, 5.0], [3.0], [[0.2], [0.3], [0.5]])
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        for s in (0.01, 0.5, 4.0):
            pc = rd.conditional_rd(j, d, s)
            pr = rd.residual_rd(j, d, s)
            assert pc.rate == pytest.approx(pr.rate, abs=1e-9)
            assert pc.distortion == pytest.approx(pr.distortion, abs=1e-9)

    def test_asymmetric_contexts_lossless_endpoint(self):
        j = asymmetric_contexts_joint()
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        slope = 1e-4
        pc = rd.conditional_rd(j, d, slope)
        pr = rd.residual_rd(j, d, slope)
        assert pc.rate == pytest.approx(1.0, abs=1e-3)
        assert pr.rate == pytest.approx(1.5, abs=1e-3)

    def test_inequality_random_sweep(self):
        rng = np.random.default_rng(23)
        slopes = [0.02, 0.3, 2.0]
        for _ in range(15):
            j = rd.random_joint(rng)
            d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
            for cmp in rd.verify_rd_inequality(j, d, slopes, ba_max_iters=400_000):
                assert cmp.holds, cmp

    def test_equality_for_singleton_y(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            nx = int(rng.integers(2, 6))
            x_alpha = np.sort(rng.choice(np.arange(-6, 7), nx, replace=False)).astype(float)
            pmf = rng.random((nx, 1)) + 1e-3
            pmf /= pmf.sum()
            pmf.flat[np.argmax(pmf)] += 1.0 - pmf.sum()
            j = rd.DiscreteJointSource(x_alpha, [0.0], pmf)
            d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
            for cmp in rd.verify_rd_inequality(j, d, [0.05, 1.0], ba_max_iters=400_000):
                assert abs(cmp.margin) <= 1e-6

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_meaningless_tolerance_refused(self, tol):
        # nan and -1 would report false violations, inf would pass vacuously
        j = rd.random_joint(np.random.default_rng(0))
        d = rd.DistortionMatrix.squared_error(rd.residual_alphabet(j))
        with pytest.raises(ValueError, match="tol must be finite"):
            rd.verify_rd_inequality(j, d, [1.0], tol=tol)
        assert rd.verify_rd_inequality(j, d, [1.0], tol=0.0)[0].holds


# ---------------------------------------------------------------------------
# Data-processing inequality
# ---------------------------------------------------------------------------

class TestDPI:
    def test_identity_chain_equality(self):
        eye = np.eye(3)
        chain = rd.MarkovChainSpec([0.2, 0.3, 0.5], [eye, eye, eye])
        rep = rd.verify_dpi(chain)
        assert rep.holds
        assert rep.i_yxhat == pytest.approx(rep.i_yv, abs=1e-12)

    def test_constant_v(self):
        eye = np.eye(3)
        collapse = np.zeros((3, 1))
        collapse[:, 0] = 1.0
        chain = rd.MarkovChainSpec([0.2, 0.3, 0.5], [eye, eye, collapse])
        rep = rd.verify_dpi(chain)
        assert rep.i_yv == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_random_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            dims = rng.integers(2, 5, size=4)
            channels = []
            for a, b in zip(dims[:-1], dims[1:]):
                m = rng.random((a, b)) + 1e-3
                m /= m.sum(axis=1, keepdims=True)
                for row in m:
                    row[np.argmax(row)] += 1.0 - row.sum()
                channels.append(m)
            p = rng.random(dims[0]) + 1e-3
            p /= p.sum()
            p[np.argmax(p)] += 1.0 - p.sum()
            assert rd.verify_dpi(rd.MarkovChainSpec(p, channels)).holds

    def test_wrong_chain_length(self):
        with pytest.raises(rd.DistributionError):
            rd.verify_dpi(rd.MarkovChainSpec([0.5, 0.5], [np.eye(2)]))


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lossless_bound_property(seed):
    j = rd.random_joint(np.random.default_rng(seed))
    assert rd.verify_lossless_bound(j).holds


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mi_nonnegative_property(seed):
    j = rd.random_joint(np.random.default_rng(seed))
    assert rd.mutual_information(j) >= 0.0
    assert rd.conditional_entropy(j) <= rd.entropy(j.marginal_x()) + 1e-9
