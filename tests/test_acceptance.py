"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the summary lines.
Each criterion states its tolerance inline; the expensive codec runs are
shared through module-scoped fixtures to stay inside the runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from svhm import rdtheory as rd
from svhm import evalkit as ek
from svhm.codec import (
    CodecConfig,
    Frame,
    ScalableBitstream,
    decode_sequence,
    encode_sequence,
)
from svhm.codec import coding, transform as tf
from svhm.codec.modes import ModeMaps, combine_predictor
from svhm.codec.synthetic import translating_square, textured_scene
from svhm.codec.y4m import read_y4m, write_y4m
from svhm.entropy_model import LaplaceParamField, estimate_rate, quantize
from svhm.range_coder import range_decode, range_encode

from test_evalkit import oracle_msssim_plane


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. Conditional coding never needs more rate than residual coding
# ---------------------------------------------------------------------------

def test_criterion_1_conditional_vs_residual_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    slopes = [float(s) for s in np.geomspace(0.01, 10.0, 10)]
    worst = np.inf
    violations = 0
    for _ in range(100):
        joint = rd.random_joint(rng)
        dmat = rd.DistortionMatrix.squared_error(rd.residual_alphabet(joint))
        for cmp in rd.verify_rd_inequality(joint, dmat, slopes, tol=1e-6,
                                           ba_max_iters=400_000):
            worst = min(worst, cmp.margin)
            violations += 0 if cmp.holds else 1

    # with a single context the side information is vacuous, so the two
    # schemes coincide: equality within the same tolerance
    eq_worst = 0.0
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        nx = int(r2.integers(2, 9))
        x_alpha = np.sort(r2.choice(np.arange(-8, 9), nx, replace=False)).astype(float)
        pmf = r2.random((nx, 1)) + 1e-3
        pmf /= pmf.sum()
        pmf.flat[np.argmax(pmf)] += 1.0 - pmf.sum()
        joint = rd.DiscreteJointSource(x_alpha, [0.0], pmf)
        dmat = rd.DistortionMatrix.squared_error(rd.residual_alphabet(joint))
        for cmp in rd.verify_rd_inequality(joint, dmat, slopes, tol=1e-6,
                                           ba_max_iters=400_000):
            eq_worst = max(eq_worst, abs(cmp.margin))

    dt = time.perf_counter() - t0
    ok = violations == 0 and eq_worst <= 1e-6 and dt < 60.0
    report(1, ok,
           f"100 joints x 10 slopes: {violations} violations, worst margin "
           f"{worst:.2e}; single-context |margin| <= {eq_worst:.2e}; {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. Lossless bound H(X|Y) <= H(X - Y)
# ---------------------------------------------------------------------------

def test_criterion_2_lossless_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    holds = all(rd.verify_lossless_bound(rd.random_joint(rng), tol=1e-9).holds
                for _ in range(200))
    # X uniform on {0,1} independent of Y uniform on {0,1}: the per-context
    # residual supports differ, so subtraction wastes bits (1.0 vs 1.5)
    j = rd.DiscreteJointSource([0.0, 1.0], [0.0, 1.0], np.full((2, 2), 0.25))
    rep = rd.verify_lossless_bound(j)
    gap = rep.h_res - rep.h_cond
    dt = time.perf_counter() - t0
    ok = (holds and abs(rep.h_cond - 1.0) < 1e-12 and abs(rep.h_res - 1.5) < 1e-12
          and gap >= 0.49 and dt < 5.0)
    report(2, ok,
           f"200 random joints hold; constructed joint H(X|Y)={rep.h_cond:.3f}, "
           f"H(X-Y)={rep.h_res:.3f}, gap {gap:.3f} >= 0.49; {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. Blahut-Arimoto vs independent oracles
# ---------------------------------------------------------------------------

def grid_search_rd(p, dvals, slope):
    """Exhaustive search over binary channels (q0, q1) = p(y=1 | x), two-stage
    grid refinement; an oracle sharing no code with the solver."""

    def cost_grid(q0s, q1s):
        q0 = q0s[:, None]
        q1 = q1s[None, :]
        cond = np.stack([np.broadcast_arrays(1 - q0, q0 * np.ones_like(q1))[0],
                         np.broadcast_arrays(1 - q1 * np.ones_like(q0), q1)[0]])
        # cond[x] rows: p(y | x); output marginal and mutual information
        py0 = p[0] * (1 - q0) + p[1] * (1 - q1)
        py1 = 1.0 - py0
        with np.errstate(divide="ignore", invalid="ignore"):
            def term(pc, pm):
                t = pc * np.log2(pc / pm)
                return np.where(pc > 0, t, 0.0)
            info = (p[0] * (term(1 - q0, py0) + term(q0 * np.ones_like(py0), py1))
                    + p[1] * (term((1 - q1) * np.ones_like(py0), py0)
                              + term(q1 * np.ones_like(py0), py1)))
        dist = (p[0] * ((1 - q0) * dvals[0, 0] + q0 * dvals[0, 1])
                + p[1] * ((1 - q1) * dvals[1, 0] + q1 * dvals[1, 1]))
        dist = dist * np.ones_like(info)
        return dist + slope * np.maximum(info, 0.0), np.maximum(info, 0.0)

    q = np.linspace(0.0, 1.0, 51)
    cost, info = cost_grid(q, q)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    lo0, hi0 = max(q[i] - 0.02, 0.0), min(q[i] + 0.02, 1.0)
    lo1, hi1 = max(q[j] - 0.02, 0.0), min(q[j] + 0.02, 1.0)
    q0s = np.linspace(lo0, hi0, 81)
    q1s = np.linspace(lo1, hi1, 81)
    cost, info = cost_grid(q0s, q1s)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    return float(info[i, j]), float(cost[i, j])


def test_criterion_3_blahut_arimoto_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    slopes = [0.05, 0.2, 0.8, 2.0, 6.0]
    worst_rate = 0.0
    for _ in range(3):
        p = rng.uniform(0.15, 0.85)
        p = np.array([p, 1 - p])
        alpha = np.sort(rng.choice(np.arange(-4, 5), 2, replace=False)).astype(float)
        d = rd.DistortionMatrix.squared_error(alpha)
        for s in slopes:
            pt = rd.blahut_arimoto(p, d, s, max_iters=400_000)
            rate_oracle, _ = grid_search_rd(p, d.values, s)
            worst_rate = max(worst_rate, abs(pt.rate - rate_oracle))

    # binary symmetric source, Hamming distortion: R(D) = 1 - h_b(D)
    dham = rd.DistortionMatrix.hamming([0.0, 1.0])
    worst_ham = 0.0
    for dist in np.linspace(0.03, 0.45, 10):
        slope = 1.0 / math.log2((1 - dist) / dist)
        pt = rd.blahut_arimoto([0.5, 0.5], dham, slope, max_iters=400_000)
        hb = -dist * math.log2(dist) - (1 - dist) * math.log2(1 - dist)
        worst_ham = max(worst_ham, abs(pt.rate - (1.0 - hb)), abs(pt.distortion - dist))

    dt = time.perf_counter() - t0
    ok = worst_rate <= 1e-3 and worst_ham <= 1e-3 and dt < 30.0
    report(3, ok,
           f"grid-search rate gap {worst_rate:.2e} <= 1e-3 (3 sources x 5 slopes); "
           f"binary-Hamming closed-form gap {worst_ham:.2e} <= 1e-3 (10 levels); {dt:.1f}s")


# ---------------------------------------------------------------------------
# 4. Entropy coder: exactness and tightness against the model estimate
# ---------------------------------------------------------------------------

def test_criterion_4_entropy_coder():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    n_trials = 10_000
    worst_excess = -np.inf
    for _ in range(n_trials):
        n = int(rng.integers(1, 65))
        mu = rng.uniform(-20, 20, n)
        scale = rng.uniform(0.04, 10.0, n)
        symbols = quantize(mu + rng.laplace(0.0, 1.0, n) * scale)
        symbols = np.clip(symbols, np.ceil(mu - 64), np.floor(mu + 64)).astype(np.int64)
        field = LaplaceParamField(mu, scale)
        bs = range_encode(symbols, field)
        assert np.array_equal(range_decode(bs, field), symbols)
        excess = bs.bit_length - (estimate_rate(symbols, field) * 1.01 + 64.0)
        worst_excess = max(worst_excess, excess)
        assert excess <= 0.0

    # one large model-matched plane as well
    n = 100_000
    mu = np.round(rng.uniform(-5, 5, n))
    scale = np.full(n, 2.0)
    symbols = np.clip(quantize(mu + rng.laplace(0.0, 1.0, n) * 2.0),
                      np.ceil(mu - 64), np.floor(mu + 64)).astype(np.int64)
    field = LaplaceParamField(mu, scale)
    bs = range_encode(symbols, field)
    big_ok = (np.array_equal(range_decode(bs, field), symbols)
              and bs.bit_length <= estimate_rate(symbols, field) * 1.01 + 64.0)

    dt = time.perf_counter() - t0
    ok = worst_excess <= 0.0 and big_ok and dt < 60.0
    report(4, ok,
           f"{n_trials} roundtrips exact, worst bits over (estimate*1.01 + 64): "
           f"{worst_excess:.1f}; 10^5-symbol plane ok; {dt:.1f}s")


# ---------------------------------------------------------------------------
# 5. Codec structural invariants on two clips
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def clips(tmp_path_factory):
    square = translating_square(frames=30, size=64, seed=0)
    path = tmp_path_factory.mktemp("accept") / "textured.y4m"
    write_y4m(path, textured_scene(frames=30, height=144, width=176, seed=0))
    textured = read_y4m(path)
    return {"square": square, "textured": textured}


def check_clip_invariants(clip, gop):
    """Returns (ok, detail) for invariants (a), (b), (d), (e) on one clip."""
    bpps = []
    psnr_ok = True
    for q in range(4):
        config = CodecConfig(quality=q, gop=gop)
        stream, rep = encode_sequence(clip, config)
        bpps.append(rep.bpp())
        enh, _ = decode_sequence(stream, "base+enh")
        base, _ = decode_sequence(stream, "base")
        for x, b, e in zip(clip, base, enh):
            if ek.psnr_rgb(x, e) < ek.psnr_rgb(x, b):
                psnr_ok = False
        if q == 2:
            # (a) base decode unaffected by dropping enhancement records
            stripped = ScalableBitstream.deserialize(
                stream.strip_enhancement().serialize())
            base2, _ = decode_sequence(stripped, "base+enh")
            strip_ok = all(a.allclose(b) for a, b in zip(base, base2))
            # (e) deterministic re-encode
            stream2, _ = encode_sequence(clip, CodecConfig(quality=2, gop=gop))
            reenc_ok = stream2.serialize() == stream.serialize()
    ladder_ok = bpps[0] < bpps[1] < bpps[2] < bpps[3]
    ok = strip_ok and psnr_ok and ladder_ok and reenc_ok
    detail = (f"strip={strip_ok} psnr(enh>=base)={psnr_ok} "
              f"ladder={['%.3f' % b for b in bpps]} re-encode={reenc_ok}")
    return ok, detail


def test_criterion_5_codec_invariants(clips):
    t0 = time.perf_counter()
    ok_sq, d_sq = check_clip_invariants(clips["square"], gop=16)
    ok_tx, d_tx = check_clip_invariants(clips["textured"], gop=32)

    # (c) SKIP economy: a truly static clip spends < 1% of the intra-frame
    # signal bits on each inter frame of the base layer
    first = clips["square"][0]
    static = [Frame(first.rgb.copy()) for _ in range(30)]
    _, rep = encode_sequence(static, CodecConfig(quality=2, gop=32,
                                                 enhancement=False))
    intra_bits = rep.frame_bits[0]["base_signal"]
    inter_max = max(fb["base_signal"] for fb in rep.frame_bits[1:])
    skip_ok = inter_max < 0.01 * intra_bits

    dt = time.perf_counter() - t0
    ok = ok_sq and ok_tx and skip_ok and dt < 300.0
    report(5, ok,
           f"square[{d_sq}] textured[{d_tx}] skip: max inter {inter_max}b vs "
           f"intra {intra_bits}b ({inter_max / intra_bits:.2%} < 1%); {dt:.0f}s")


# ---------------------------------------------------------------------------
# 6. Mode-equation limiting cases, exact pre-clamp
# ---------------------------------------------------------------------------

def test_criterion_6_mode_equations_exact():
    rng = np.random.default_rng(21)
    h = w = 32
    mk = lambda: Frame(np.stack([rng.uniform(40, 215, (h, w)), rng.uniform(40, 215, (h, w)),
                                 rng.uniform(40, 215, (h, w))]))
    xbar, prev, x, xt = mk(), mk(), mk(), mk()
    ones = np.ones((h, w))

    # beta = 1: predictor is exactly the warped frame
    b1 = all(np.array_equal(a, b) for a, b in zip(
        combine_predictor(xbar, prev, ModeMaps(ones, ones)).rgb, xbar.rgb))
    # beta = 0: predictor is exactly the previous decoded frame
    b0 = all(np.array_equal(a, b) for a, b in zip(
        combine_predictor(xbar, prev, ModeMaps(ones, 0.0 * ones)).rgb,
        prev.rgb))

    # alpha = 0: every block skips and the reconstruction copies the
    # predictor bit-exactly (0 * x + 1 * xtilde)
    _, recon0 = coding.code_inter_frame(x, xt, 0.0 * ones, 2)
    a0 = all(np.array_equal(a, b) for a, b in zip(recon0.rgb, xt.rgb))

    # alpha = 1: reconstruction equals the decoded signal xcheck, recomputed
    # here directly from the transform/quantizer definitions
    delta = tf.quality_step(2)
    payload, recon1 = coding.code_inter_frame(x, xt, ones, 2)
    a1 = True
    for plane, pred, got in zip(x.rgb, xt.rgb, recon1.rgb):
        symbols = quantize(tf.forward(tf.blockify(plane) - tf.blockify(pred)) / delta)
        xcheck = pred + tf.unblockify(tf.inverse(symbols * delta), h, w)
        a1 = a1 and np.array_equal(got, np.clip(xcheck, 0.0, 255.0))

    ok = b1 and b0 and a0 and a1
    report(6, ok, f"beta=1:{b1} beta=0:{b0} alpha=0 (SKIP):{a0} alpha=1:{a1}")


# ---------------------------------------------------------------------------
# 7. Break-even table from the published BD-Rate averages
# ---------------------------------------------------------------------------

def test_criterion_7_break_even_table():
    t0 = time.perf_counter()
    averages = [
        ("all", 100, "vvenc", "mAP", -36.4),
        ("all", 100, "proposed-base", "mAP", -53.2),
        ("all", 100, "vvenc", "PSNR", -46.2),
        ("all", 100, "proposed-enh", "PSNR", -22.3),
        ("all", 100, "proposed-base+enh", "PSNR", -0.1),
        ("all", 100, "vvenc", "MS-SSIM", -50.9),
        ("all", 100, "proposed-enh", "MS-SSIM", -50.3),
        ("all", 100, "proposed-base+enh", "MS-SSIM", -32.3),
    ]
    rows = [ek.BDSummaryRow(*r) for r in averages]
    rep = ek.table_pipeline(rows)

    a = rep.machine_factor
    b_psnr_enh = rep.human_factors[("PSNR", "proposed-enh")]
    expected_phi = {
        ("PSNR", "proposed-enh"): 0.41,
        ("PSNR", "proposed-base+enh"): 0.27,
        ("MS-SSIM", "proposed-enh"): 0.97,
        ("MS-SSIM", "proposed-base+enh"): 0.47,
    }
    phi_ok = all(abs(rep.cells[k].phi - v) <= 0.01 for k, v in expected_phi.items())
    factors_ok = (abs(a - 0.832) < 5e-4 and abs(b_psnr_enh - 1.239) < 5e-4)
    dt = time.perf_counter() - t0
    ok = phi_ok and factors_ok and dt < 1.0
    phis = {f"{m}/{c.split('-', 1)[1]}": round(rep.cells[(m, c)].phi, 3)
            for m, c in expected_phi}
    report(7, ok, f"a={a:.3f} b={b_psnr_enh:.3f} phi={phis} "
                  f"(targets 0.41/0.27/0.97/0.47 +/- 0.01); {dt:.2f}s")


# ---------------------------------------------------------------------------
# 8. BD-Rate sanity
# ---------------------------------------------------------------------------

def test_criterion_8_bd_rate_sanity():
    pts = [(0.12, 30.2), (0.22, 33.1), (0.43, 35.9), (0.81, 38.6)]
    a = ek.RDCurveTable("a", "PSNR", pts)
    same = ek.RDCurveTable("same", "PSNR", list(pts))
    double = ek.RDCurveTable("double", "PSNR", [(2 * r, q) for r, q in pts])
    other = ek.RDCurveTable("other", "PSNR",
                            [(0.15, 30.8), (0.27, 33.6), (0.5, 36.3), (0.9, 38.2)])

    zero = ek.bd_rate(a, same)
    hundred = ek.bd_rate(a, double)
    fwd = ek.bd_rate(a, other)
    bwd = ek.bd_rate(other, a)
    comp = (1 + fwd / 100.0) * (1 + bwd / 100.0)

    ok = (abs(zero) <= 1e-9 and abs(hundred - 100.0) <= 0.1
          and abs(comp - 1.0) * 100.0 <= 0.5)
    report(8, ok, f"identical -> {zero:.2e}%; doubled -> {hundred:.4f}% "
                  f"(+/- 0.1); inverse composition {comp:.6f} (within 0.5%)")


# ---------------------------------------------------------------------------
# 9. Metric closed forms and MS-SSIM oracle agreement
# ---------------------------------------------------------------------------

def test_criterion_9_metrics():
    h, w = 144, 176
    a = Frame(np.stack([np.full((h, w), 100.0), np.full((h, w), 100.0), np.full((h, w), 100.0)]))
    b = Frame(np.stack([np.full((h, w), 116.0), np.full((h, w), 116.0), np.full((h, w), 116.0)]))
    psnr = ek.psnr_rgb(a, b)
    psnr_expected = 10.0 * math.log10(255.0 ** 2 / 256.0)
    psnr_ok = abs(psnr - psnr_expected) <= 1e-3

    rng = np.random.default_rng(2718)
    base = rng.uniform(20, 235, (h, w))
    ref = Frame(np.stack([base, base.copy(), base.copy()]))
    degraded = Frame(np.stack([np.clip(p + rng.normal(0, 12.0, (h, w)), 0, 255)
                               for p in ref.rgb]))
    self_ok = abs(ek.msssim_rgb(ref, ref) - 1.0) <= 1e-9
    got = ek.msssim_rgb(ref, degraded)
    want = float(np.mean([oracle_msssim_plane(pa, pb) for pa, pb in
                          zip(ref.rgb, degraded.rgb)]))
    oracle_ok = abs(got - want) <= 1e-4

    ok = psnr_ok and self_ok and oracle_ok
    report(9, ok,
           f"PSNR(+16)={psnr:.4f} dB (expected {psnr_expected:.4f} +/- 1e-3); "
           f"MS-SSIM self=1 ok={self_ok}; oracle gap {abs(got - want):.2e} <= 1e-4")
