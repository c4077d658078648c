"""Tests for metrics, BD-Rate, and break-even analysis."""

import math

import numpy as np
import pytest

from svhm.codec.frames import Frame
from svhm import evalkit as ek


def gray_frame(value, h=144, w=176):
    p = np.full((h, w), float(value))
    return Frame(np.stack([p, p.copy(), p.copy()]))


def noisy_pair(rng, sigma, h=144, w=176):
    base = rng.uniform(30, 220, (h, w))
    a = Frame(np.stack([base, base.copy(), base.copy()]))
    b = Frame(np.stack([np.clip(p + rng.normal(0, sigma, (h, w)), 0, 255) for p in a.rgb]))
    return a, b


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------

class TestPSNR:
    def test_identical_is_infinite(self):
        f = gray_frame(128)
        assert ek.psnr_rgb(f, f) == ek.PSNR_INF

    def test_constant_offset_closed_form(self):
        a = gray_frame(100)
        b = gray_frame(116)
        assert ek.psnr_rgb(a, b) == pytest.approx(
            10.0 * math.log10(255.0 ** 2 / 256.0), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = noisy_pair(rng, 5.0)
        assert ek.psnr_rgb(a, b) == ek.psnr_rgb(b, a)

    def test_pooled_over_channels(self):
        h = w = 16
        a = Frame(np.stack([np.zeros((h, w)), np.zeros((h, w)), np.zeros((h, w))]))
        b = Frame(np.stack([np.full((h, w), 12.0), np.zeros((h, w)), np.zeros((h, w))]))
        # MSE pooled over 3 channels: 144 / 3
        assert ek.psnr_rgb(a, b) == pytest.approx(
            10.0 * math.log10(255.0 ** 2 / 48.0), abs=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ek.psnr_rgb(gray_frame(0, 16, 16), gray_frame(0, 16, 18))

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(1)
        vals = []
        for sigma in (1.0, 4.0, 16.0):
            a, b = noisy_pair(np.random.default_rng(1), sigma)
            vals.append(ek.psnr_rgb(a, b))
        assert vals[0] > vals[1] > vals[2]


# ---------------------------------------------------------------------------
# MS-SSIM (independent sliding-window oracle)
# ---------------------------------------------------------------------------

def oracle_msssim_plane(x, y):
    """Direct windowed implementation, sharing no code with the library."""
    taps, sigma = 11, 1.5
    g1 = np.exp(-0.5 * ((np.arange(taps) - 5) / sigma) ** 2)
    g1 /= g1.sum()
    win = np.outer(g1, g1)
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    weights = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)

    def windowed(p):
        # scipy's "reflect" boundary equals numpy's "symmetric" padding
        pad = np.pad(p, 5, mode="symmetric")
        view = np.lib.stride_tricks.sliding_window_view(pad, (taps, taps))
        return np.einsum("ijkl,kl->ij", view, win)

    score = 1.0
    for level, wt in enumerate(weights):
        mx, my = windowed(x), windowed(y)
        sxx = windowed(x * x) - mx * mx
        syy = windowed(y * y) - my * my
        sxy = windowed(x * y) - mx * my
        cs = (2 * sxy + c2) / (sxx + syy + c2)
        if level == len(weights) - 1:
            lum = (2 * mx * my + c1) / (mx * mx + my * my + c1)
            score *= float(np.mean(lum * cs)) ** wt
        else:
            score *= max(float(np.mean(cs)), 0.0) ** wt
            h, w = x.shape
            x = x[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
            y = y[: h - h % 2, : w - w % 2].reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))
    return score


class TestBlurOracle:
    @pytest.mark.parametrize("shape", [(144, 176), (72, 88), (36, 44), (18, 22), (9, 11),
                                       (150, 203), (4, 3)])
    def test_matches_scipy_reflect(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        planes = np.random.default_rng(7).uniform(0.0, 255.0, (2, *shape))
        win = ek._gaussian_window()
        expected = [ndimage.correlate1d(ndimage.correlate1d(p, win, axis=0, mode="reflect"),
                                        win, axis=1, mode="reflect") for p in planes]
        np.testing.assert_allclose(ek._blur(planes), expected, rtol=1e-12, atol=0)


class TestMSSSIM:
    def test_identical_is_one(self):
        rng = np.random.default_rng(2)
        a, _ = noisy_pair(rng, 0.0)
        assert ek.msssim_rgb(a, a) == pytest.approx(1.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        a, b = noisy_pair(rng, 8.0)
        assert ek.msssim_rgb(a, b) == pytest.approx(ek.msssim_rgb(b, a), abs=1e-12)

    def test_matches_sliding_window_oracle(self):
        rng = np.random.default_rng(4)
        a, b = noisy_pair(rng, 10.0)
        expected = np.mean([oracle_msssim_plane(pa, pb)
                            for pa, pb in zip(a.rgb, b.rgb)])
        assert ek.msssim_rgb(a, b) == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_noise(self):
        vals = [ek.msssim_rgb(*noisy_pair(np.random.default_rng(5), s))
                for s in (2.0, 10.0, 40.0)]
        assert 1.0 > vals[0] > vals[1] > vals[2] > 0.0

    def test_rejects_small_frames(self):
        with pytest.raises(ValueError):
            ek.msssim_rgb(gray_frame(0, 128, 176), gray_frame(0, 128, 176))

    def test_minimum_size_accepted(self):
        rng = np.random.default_rng(6)
        a, b = noisy_pair(rng, 4.0, 144, 176)
        assert 0.0 < ek.msssim_rgb(a, b) <= 1.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            ek.msssim_rgb(gray_frame(0), gray_frame(0, 144, 178))


# ---------------------------------------------------------------------------
# RD curves
# ---------------------------------------------------------------------------

def curve(label="a", metric="PSNR", pts=((0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0))):
    return ek.RDCurveTable(label, metric, list(pts))


class TestRDCurveTable:
    def test_valid(self):
        c = curve()
        assert c.quality_range() == (30.0, 39.0)

    def test_duplicates_collapsed(self):
        c = ek.RDCurveTable("a", "PSNR",
                            [(0.1, 30.0), (0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)])
        assert len(c.points) == 4

    def test_too_few_points(self):
        with pytest.raises(ek.CurveError):
            ek.RDCurveTable("a", "PSNR", [(0.1, 30.0), (0.2, 33.0), (0.4, 36.0)])

    def test_nonmonotone_quality(self):
        with pytest.raises(ek.CurveError):
            ek.RDCurveTable("a", "PSNR",
                            [(0.1, 30.0), (0.2, 29.0), (0.4, 36.0), (0.8, 39.0)])

    def test_nonmonotone_bpp(self):
        with pytest.raises(ek.CurveError):
            ek.RDCurveTable("a", "PSNR",
                            [(0.1, 30.0), (0.05, 33.0), (0.4, 36.0), (0.8, 39.0)])

    def test_nonpositive_bpp(self):
        with pytest.raises(ek.CurveError):
            ek.RDCurveTable("a", "PSNR",
                            [(0.0, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)])

    def test_interpolant_hits_knots(self):
        c = curve()
        f = c.log_rate_interpolant()
        for bpp, q in c.points:
            assert float(f(q)) == pytest.approx(math.log10(bpp), abs=1e-12)

    def test_csv_roundtrip(self, tmp_path):
        curves = [curve("enc1"), curve("enc2", "MS-SSIM",
                                       ((0.1, 0.90), (0.2, 0.93), (0.4, 0.96), (0.8, 0.99)))]
        path = tmp_path / "curves.csv"
        ek.write_rd_csv(path, curves)
        back = ek.read_rd_csv(path)
        assert {(c.label, c.metric) for c in back} == {("enc1", "PSNR"), ("enc2", "MS-SSIM")}
        by_label = {c.label: c for c in back}
        assert by_label["enc1"].points == curves[0].points


def pchip_oracle_curves():
    """(x, y) knots: fixed shapes that reach every branch of the derivative
    rule, then seeded random ones."""
    curves = [
        # secants 1, -5, 1: both ends' three-point slope 4 is clamped to 3 * m0
        ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -4.0, -3.0]),
        # a zero secant and sign changes give flat interior tangents; the
        # right end's three-point slope has the wrong sign and becomes 0
        ([0.0, 1.0, 3.0, 4.0, 6.0, 6.5], [1.0, 1.0, 2.0, 0.0, 5.0, 5.1]),
        # two 0 secants in a row, one of them -0.0
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, -0.0, 1.0, 3.0]),
    ]
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 6, 8, 12) * 4:
        x = np.cumsum(rng.uniform(0.05, 4.0, n)) + rng.uniform(-40.0, 40.0)
        y = rng.normal(0.0, 3.0, n) if n % 2 else np.cumsum(rng.exponential(1.0, n))
        curves.append((x.tolist(), y.tolist()))
    return curves


class TestMonotoneCubicOracle:
    @pytest.mark.parametrize("x, y", pchip_oracle_curves())
    def test_matches_scipy_pchip(self, x, y):
        interpolate = pytest.importorskip("scipy.interpolate")
        ours = ek.MonotoneCubic(x, y)
        ref = interpolate.PchipInterpolator(x, y)
        q = np.concatenate([x, np.linspace(x[0] - 1.0, x[-1] + 1.0, 97)])
        np.testing.assert_allclose(ours(q), ref(q), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ours.antiderivative(q), ref.antiderivative()(q),
                                   rtol=1e-12, atol=1e-12)

    def test_bd_rate_matches_scipy_pchip(self):
        interpolate = pytest.importorskip("scipy.interpolate")

        def oracle(anchor, test):
            lo = max(anchor.points[0][1], test.points[0][1])
            hi = min(anchor.points[-1][1], test.points[-1][1])
            area = [interpolate.PchipInterpolator(
                        [q for _, q in c.points], [math.log10(r) for r, _ in c.points]
                    ).integrate(lo, hi) for c in (anchor, test)]
            return 100.0 * (10.0 ** ((area[1] - area[0]) / (hi - lo)) - 1.0)

        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(300):
            a, b = (ek.RDCurveTable(lbl, "PSNR", list(zip(
                        np.sort(rng.uniform(0.01, 2.0, n)).tolist(),
                        np.sort(rng.uniform(28.0, 42.0, n)).tolist())))
                    for lbl, n in (("a", rng.integers(4, 8)), ("b", rng.integers(4, 8))))
            try:
                got = ek.bd_rate(a, b)
            except ek.OverlapError:
                continue
            assert got == pytest.approx(oracle(a, b), rel=1e-12, abs=1e-12)
            checked += 1
        assert checked > 200


class TestBDRate:
    def test_identical_curves_zero(self):
        assert ek.bd_rate(curve(), curve("b")) == pytest.approx(0.0, abs=1e-9)

    def test_doubled_rate_is_100_percent(self):
        a = curve()
        b = ek.RDCurveTable("b", "PSNR", [(2 * r, q) for r, q in a.points])
        assert ek.bd_rate(a, b) == pytest.approx(100.0, abs=1e-6)

    def test_halved_rate_is_minus_50_percent(self):
        a = curve()
        b = ek.RDCurveTable("b", "PSNR", [(r / 2, q) for r, q in a.points])
        assert ek.bd_rate(a, b) == pytest.approx(-50.0, abs=1e-6)

    def test_antisymmetric_composition(self):
        a = curve()
        b = ek.RDCurveTable("b", "PSNR",
                            [(0.15, 30.5), (0.3, 33.5), (0.5, 36.5), (0.9, 38.5)])
        forward = ek.bd_rate(a, b)
        backward = ek.bd_rate(b, a)
        assert (1 + forward / 100) * (1 + backward / 100) == pytest.approx(1.0, abs=1e-9)

    def test_metric_mismatch(self):
        with pytest.raises(ek.OverlapError):
            ek.bd_rate(curve(), curve("b", "MS-SSIM"))

    def test_insufficient_overlap(self):
        a = curve()
        b = ek.RDCurveTable("b", "PSNR",
                            [(0.1, 38.5), (0.2, 41.0), (0.4, 43.0), (0.8, 45.0)])
        with pytest.raises(ek.OverlapError, match="overlap"):
            ek.bd_rate(a, b)

    def test_disjoint_curves_have_no_common_range(self):
        a = curve()
        b = ek.RDCurveTable("b", "PSNR", [(r, q + 20.0) for r, q in a.points])
        with pytest.raises(ek.OverlapError) as exc:
            ek.bd_rate(a, b)
        assert str(exc.value) == ("no common quality range for PSNR: anchor spans "
                                  "(30.0, 39.0), test spans (50.0, 59.0)")

    def test_msssim_overlap_threshold(self):
        mk = lambda lbl, qs: ek.RDCurveTable(
            lbl, "MS-SSIM", [(0.1 * 2 ** i, q) for i, q in enumerate(qs)])
        a = mk("a", (0.90, 0.92, 0.94, 0.96))
        b = mk("b", (0.955, 0.96, 0.97, 0.98))   # overlap 0.005 < 0.01
        with pytest.raises(ek.OverlapError):
            ek.bd_rate(a, b)
        c = mk("c", (0.93, 0.95, 0.97, 0.99))    # overlap 0.03 is enough
        ek.bd_rate(a, c)


class TestRelativeEfficiency:
    def test_definition(self):
        assert ek.relative_efficiency(-53.2, -36.4) == pytest.approx(0.832, abs=1e-12)
        assert ek.relative_efficiency(0.0, 0.0) == 1.0
        assert ek.relative_efficiency(10.0, -10.0) == pytest.approx(1.2)


class TestBreakEven:
    def test_interior(self):
        res = ek.break_even(0.832, 1.239)
        assert res.regime == "interior"
        assert res.phi == pytest.approx((1 - 0.832) / (1.239 - 0.832), abs=1e-12)

    def test_always(self):
        res = ek.break_even(0.8, 0.95)
        assert res.regime == "always" and res.phi == 1.0

    def test_never(self):
        res = ek.break_even(1.1, 1.3)
        assert res.regime == "never" and res.phi == 0.0

    def test_degenerate(self):
        res = ek.break_even(1.0, 1.0)
        assert res.regime == "degenerate" and res.phi == 1.0

    def test_boundary_a_one(self):
        # machine layer exactly breaks even, human layer costs more:
        # (1 - phi) * 1 + phi * b >= 1 for every phi, so the layered system
        # never saves bits, the same as the mirror (2.0, 1.0)
        for a, b in ((1.0, 1.3), (1.0, 2.0), (2.0, 1.0)):
            res = ek.break_even(a, b)
            assert (res.phi, res.regime, res.cell()) == (0.0, "never", "never")

    def test_above(self):
        # machine layer costlier, human layer cheaper: the layered system
        # saves bits only when human viewing is requested more than phi,
        # the mirror image of the interior case (0.8, 1.2)
        res = ek.break_even(1.2, 0.8)
        assert res.regime == "above" and res.phi == pytest.approx(0.5)
        assert res.cell() == "above 0.50"

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ek.break_even(0.0, 1.0)

    def test_cell_formatting(self):
        assert ek.break_even(0.8, 1.2).cell() == "0.50"
        assert ek.break_even(0.8, 0.9).cell() == "always"


# ---------------------------------------------------------------------------
# Summary table pipeline
# ---------------------------------------------------------------------------

def summary_rows():
    """Two datasets with frame weights 30/70 against one reference codec."""
    rows = []
    spec = {
        # codec -> metric -> (dataset1 bd, dataset2 bd)
        "vvenc": {"mAP": (-40.0, -35.0), "PSNR": (10.0, 14.0)},
        "proposed-base": {"mAP": (-55.0, -50.0)},
        "proposed-enh": {"PSNR": (30.0, 36.0)},
        "proposed-base+enh": {"PSNR": (40.0, 44.0)},
    }
    for codec, metrics in spec.items():
        for metric, (d1, d2) in metrics.items():
            rows.append(ek.BDSummaryRow("clipA", 30, codec, metric, d1))
            rows.append(ek.BDSummaryRow("clipB", 70, codec, metric, d2))
    return rows


class TestTablePipeline:
    def test_weighted_averages_and_factors(self):
        report = ek.table_pipeline(summary_rows())
        # mAP averages: vvenc -36.5, base -51.5 -> a = 1 - 15/100
        assert report.machine_factor == pytest.approx(0.85, abs=1e-12)
        # PSNR averages: vvenc 12.8, enh 34.2, base+enh 42.8
        assert report.human_factors[("PSNR", "proposed-enh")] == pytest.approx(
            1.0 + (34.2 - 12.8) / 100.0, abs=1e-12)
        cell = report.cells[("PSNR", "proposed-base+enh")]
        b = 1.0 + (42.8 - 12.8) / 100.0
        assert cell.phi == pytest.approx((1 - 0.85) / (b - 0.85), abs=1e-12)

    def test_missing_machine_rows(self):
        rows = [r for r in summary_rows() if r.metric != "mAP"]
        with pytest.raises(ValueError):
            ek.table_pipeline(rows)

    def test_report_serialization(self):
        report = ek.table_pipeline(summary_rows())
        d = report.to_dict()
        assert "machine_factor" in d and "break_even" in d
        text = report.to_text()
        assert "PSNR" in text
        report.to_json()

    def test_summary_csv_roundtrip(self, tmp_path):
        import csv
        rows = summary_rows()
        path = tmp_path / "summary.csv"
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["dataset", "frames", "codec", "metric", "bd_rate"])
            for r in rows:
                wr.writerow([r.dataset, r.frames, r.codec, r.metric, r.bd_rate])
        back = ek.read_bd_summary_csv(path)
        assert back == rows
