"""Quality metrics, BD-Rate, and break-even analysis for layered codecs.

Covers RGB PSNR, five-scale MS-SSIM, Bjontegaard delta rate between RD
curves, the relative-efficiency factors comparing a layered codec against a
single-layer reference, and the break-even fraction of human-viewing time at
which the layered system stops saving bits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codec.frames import Frame, downsample2

PSNR_INF = float("inf")

# canonical five-scale weights and window for MS-SSIM
_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2


class CurveError(ValueError):
    pass


class OverlapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Frame metrics
# ---------------------------------------------------------------------------

def psnr_rgb(a: Frame, b: Frame) -> float:
    """Peak signal-to-noise ratio with MSE pooled over all three channels."""
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("frames differ in size")
    mse = np.mean((a.rgb - b.rgb) ** 2)
    if mse == 0.0:
        return PSNR_INF
    return 10.0 * math.log10(255.0 ** 2 / mse)


def _gaussian_window(taps: int = 11, sigma: float = 1.5) -> np.ndarray:
    x = np.arange(taps) - (taps - 1) / 2.0
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


_WINDOW = _gaussian_window()
# Output rows per band matrix: one matrix covers a side of up to this length,
# and longer sides are blurred in blocks, so the cost stays linear in the side.
_BLUR_BLOCK = 32


@lru_cache(maxsize=64)
def _blur_blocks(n: int) -> tuple[tuple[slice, np.ndarray], ...]:
    """The window's correlation along an axis of length n as (input rows,
    band matrix) pairs, one per block of consecutive output rows.  Edges are
    half-sample symmetric (d c b a | a b c d | d c b a)."""
    half = len(_WINDOW) // 2
    blocks = []
    for i0 in range(0, n, _BLUR_BLOCK):
        i1 = min(i0 + _BLUR_BLOCK, n)
        j0, j1 = max(i0 - half, 0), min(i1 + half, n)
        src = np.mod(np.arange(i0, i1)[:, None] + np.arange(-half, half + 1), 2 * n)
        src = np.where(src < n, src, 2 * n - 1 - src) - j0
        band = np.zeros((i1 - i0, j1 - j0))
        np.add.at(band, (np.arange(i1 - i0)[:, None], src), _WINDOW)
        blocks.append((slice(j0, j1), band))
    return tuple(blocks)


def _blur(s: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur over the last two axes of s."""
    t = np.concatenate([band @ s[..., rows, :]
                        for rows, band in _blur_blocks(s.shape[-2])], axis=-2)
    return np.concatenate([t[..., cols] @ band.T
                           for cols, band in _blur_blocks(s.shape[-1])], axis=-1)


def _ssim_components(x: np.ndarray, y: np.ndarray):
    """Local means of x and y, and the contrast-structure map."""
    mx, my, exx, eyy, exy = _blur(np.stack([x, y, x * x, y * y, x * y]))
    cs = (2 * (exy - mx * my) + _C2) / ((exx - mx * mx) + (eyy - my * my) + _C2)
    return mx, my, cs


def _msssim_channel(x: np.ndarray, y: np.ndarray) -> float:
    score = 1.0
    for weight in _MSSSIM_WEIGHTS[:-1]:   # contrast-structure only, then halve
        _, _, cs = _ssim_components(x, y)
        score *= max(float(np.mean(cs)), 0.0) ** weight
        x, y = downsample2(x), downsample2(y)
    mx, my, cs = _ssim_components(x, y)   # the coarsest scale adds luminance
    lum = (2 * mx * my + _C1) / (mx * mx + my * my + _C1)
    return score * float(np.mean(lum * cs)) ** _MSSSIM_WEIGHTS[-1]


def msssim_rgb(a: Frame, b: Frame) -> float:
    """Five-scale structural similarity averaged over RGB channels."""
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("frames differ in size")
    if min(a.height, a.width) < 144:
        raise ValueError(
            f"frame {a.width}x{a.height} too small for "
            f"{len(_MSSSIM_WEIGHTS)}-scale MS-SSIM (needs both sides >= 144)")
    return float(np.mean([
        _msssim_channel(pa, pb) for pa, pb in zip(a.rgb, b.rgb)
    ]))


# ---------------------------------------------------------------------------
# RD curves and BD-Rate
# ---------------------------------------------------------------------------

_OVERLAP_MIN = {"PSNR": 2.0, "mAP": 2.0, "MS-SSIM": 0.01}


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Three-point end derivative, clamped so the end piece keeps its shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


class MonotoneCubic:
    """Shape-preserving piecewise-cubic Hermite interpolant through at least
    three knots (x strictly increasing), with the Fritsch-Carlson derivative
    rule of PCHIP; the end pieces extrapolate."""

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(self.x)
        m = np.diff(y) / h
        # interior knots: weighted harmonic mean of the two secants, or a
        # flat tangent where they change sign or either is 0
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = np.sign(m[:-1]) * np.sign(m[1:]) <= 0
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d = np.concatenate([[_end_slope(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, inner),
                            [_end_slope(h[-1], h[-2], m[-1], m[-2])]])
        t = (d[:-1] + d[1:] - 2 * m) / h
        # power-series coefficients of each piece in s = q - x[k], s^3 first
        self._coef = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])
        self._start = np.concatenate(
            [[0.0], np.cumsum(self._piece_integral(np.arange(len(h)), h))])

    def _locate(self, q):
        q = np.asarray(q, dtype=float)
        k = np.clip(np.searchsorted(self.x, q, side="right") - 1, 0, len(self.x) - 2)
        return k, q - self.x[k]

    def _piece_integral(self, k, s):
        c3, c2, c1, c0 = self._coef[:, k]
        return (((c3 / 4 * s + c2 / 3) * s + c1 / 2) * s + c0) * s

    def __call__(self, q):
        k, s = self._locate(q)
        c3, c2, c1, c0 = self._coef[:, k]
        return ((c3 * s + c2) * s + c1) * s + c0

    def antiderivative(self, q):
        """Integral of the interpolant from the first knot to q."""
        k, s = self._locate(q)
        return self._start[k] + self._piece_integral(k, s)


@dataclass
class RDCurveTable:
    """One codec's operating points: (bpp, quality) under a named metric."""

    label: str
    metric: str
    points: list[tuple[float, float]]

    def __post_init__(self):
        if not all(0 < b < math.inf and math.isfinite(q) for b, q in self.points):
            raise CurveError(f"{self.label}: bpp must be positive and finite, quality finite")
        # exact duplicates are harmless; collapse them before validation
        self.points = sorted(set(self.points), key=lambda p: p[1])
        if len(self.points) < 4:
            raise CurveError(f"{self.label}: need >= 4 RD points, got {len(self.points)}")
        bpps = [p[0] for p in self.points]
        quals = [p[1] for p in self.points]
        if any(b2 <= b1 for b1, b2 in zip(bpps, bpps[1:])):
            raise CurveError(f"{self.label}: bpp must be strictly increasing")
        if any(q2 <= q1 for q1, q2 in zip(quals, quals[1:])):
            raise CurveError(f"{self.label}: quality must be strictly increasing "
                             "(non-monotone RD curve)")

    def quality_range(self) -> tuple[float, float]:
        return self.points[0][1], self.points[-1][1]

    def log_rate_interpolant(self) -> MonotoneCubic:
        quals = [p[1] for p in self.points]
        logr = [math.log10(p[0]) for p in self.points]
        return MonotoneCubic(quals, logr)


def read_rd_csv(path) -> list[RDCurveTable]:
    """CSV schema: label,metric,bpp,quality — grouped into curves."""
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f, restval=""):
            key = (row["label"], row["metric"])
            groups.setdefault(key, []).append((float(row["bpp"]), float(row["quality"])))
    return [RDCurveTable(lbl, met, sorted(pts, key=lambda p: p[1]))
            for (lbl, met), pts in groups.items()]


def write_rd_csv(path, curves: list[RDCurveTable]) -> None:
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["label", "metric", "bpp", "quality"])
        for c in curves:
            for bpp, qual in c.points:
                wr.writerow([c.label, c.metric, repr(bpp), repr(qual)])


def bd_rate(anchor: RDCurveTable, test: RDCurveTable) -> float:
    """Average bitrate difference (%) of test vs anchor at equal quality.

    log10(bpp) is interpolated over quality with a shape-preserving monotone
    cubic on each curve, the difference integrated over the common quality
    interval; negative means the test codec saves bits.
    """
    if anchor.metric != test.metric:
        raise OverlapError(f"metric mismatch: {anchor.metric} vs {test.metric}")
    lo = max(anchor.quality_range()[0], test.quality_range()[0])
    hi = min(anchor.quality_range()[1], test.quality_range()[1])
    need = _OVERLAP_MIN.get(anchor.metric, 2.0)
    spans = f"anchor spans {anchor.quality_range()}, test spans {test.quality_range()}"
    if hi < lo:
        raise OverlapError(f"no common quality range for {anchor.metric}: {spans}")
    if hi - lo < need:
        raise OverlapError(f"insufficient quality overlap for {anchor.metric}: "
                           f"{spans}, common [{lo}, {hi}] < {need}")
    fa = anchor.log_rate_interpolant().antiderivative
    ft = test.log_rate_interpolant().antiderivative
    mean_diff = (ft(hi) - ft(lo) - fa(hi) + fa(lo)) / (hi - lo)
    return 100.0 * (10.0 ** mean_diff - 1.0)


def relative_efficiency(bd_test: float, bd_reference: float) -> float:
    """Bits the test codec uses per bit of the reference, from BD-Rates
    measured against one common anchor."""
    return 1.0 + (bd_test - bd_reference) / 100.0


# ---------------------------------------------------------------------------
# Break-even analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BreakEvenResult:
    """phi = fraction of time human viewing can be requested before the
    layered system loses its bit advantage; regime flags the other cases.
    In regime "above" the machine layer costs more bits than the reference
    and the human layer fewer, so the layered system saves bits only when
    human viewing is requested more than phi of the time."""

    phi: float
    regime: str          # interior | above | always | never | degenerate

    def cell(self) -> str:
        if self.regime == "interior":
            return f"{self.phi:.2f}"
        if self.regime == "above":
            return f"above {self.phi:.2f}"
        return self.regime


def break_even(a: float, b: float) -> BreakEvenResult:
    """Solve (1 - phi) * a + phi * b = 1 for the machine-bits factor a and
    human-bits factor b (both relative to the reference codec)."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError("bit factors must be positive and finite")
    if a == 1.0 and b == 1.0:
        return BreakEvenResult(1.0, "degenerate")
    if a <= 1.0 and b <= 1.0:
        return BreakEvenResult(1.0, "always")
    if a >= 1.0 and b >= 1.0:
        return BreakEvenResult(0.0, "never")
    phi = (1.0 - a) / (b - a)
    return BreakEvenResult(min(max(phi, 0.0), 1.0), "above" if a > 1.0 else "interior")


@dataclass
class BDSummaryRow:
    dataset: str
    frames: int
    codec: str
    metric: str
    bd_rate: float


def read_bd_summary_csv(path) -> list[BDSummaryRow]:
    """CSV schema: dataset,frames,codec,metric,bd_rate."""
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f, restval=""):
            if int(row["frames"]) < 1:
                raise ValueError(f"frames must be positive, got {row['frames']}")
            rows.append(BDSummaryRow(row["dataset"], int(row["frames"]),
                                     row["codec"], row["metric"],
                                     float(row["bd_rate"])))
    return rows


def _weighted_averages(rows: list[BDSummaryRow]) -> dict[tuple[str, str], float]:
    num: dict[tuple[str, str], float] = {}
    den: dict[tuple[str, str], float] = {}
    for r in rows:
        key = (r.codec, r.metric)
        num[key] = num.get(key, 0.0) + r.frames * r.bd_rate
        den[key] = den.get(key, 0.0) + r.frames
    return {k: num[k] / den[k] for k in num}


@dataclass
class BreakEvenReport:
    machine_factor: float
    human_factors: dict = field(default_factory=dict)   # (metric, regime) -> b
    cells: dict = field(default_factory=dict)           # (metric, regime) -> BreakEvenResult

    def to_dict(self) -> dict:
        return {
            "machine_factor": self.machine_factor,
            "human_factors": {f"{m}/{r}": v for (m, r), v in self.human_factors.items()},
            "break_even": {
                f"{m}/{r}": {"phi": c.phi, "regime": c.regime}
                for (m, r), c in self.cells.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        metrics = sorted({m for m, _ in self.cells})
        regimes = sorted({r for _, r in self.cells})
        widths = [max(len("metric"), *(len(m) for m in metrics))]
        widths += [max(len(r), 8) for r in regimes]
        lines = ["  ".join(["metric".ljust(widths[0])]
                           + [r.ljust(w) for r, w in zip(regimes, widths[1:])])]
        for m in metrics:
            row = [m.ljust(widths[0])]
            for r, w in zip(regimes, widths[1:]):
                cell = self.cells.get((m, r))
                row.append((cell.cell() if cell else "-").ljust(w))
            lines.append("  ".join(row))
        return "\n".join(lines)


# The layered codec's summary-CSV labels: the base layer serves the machine
# task, measured in mAP; the human-viewing regimes are every other metric.
_MACHINE_CODEC = "proposed-base"
_MACHINE_METRIC = "mAP"
_HUMAN_CODECS = ("proposed-enh", "proposed-base+enh")


def table_pipeline(rows: list[BDSummaryRow], reference: str = "vvenc") -> BreakEvenReport:
    """Frame-count-weighted dataset averages -> bit factors -> break-even
    cells, one per (human-quality metric, layered-codec regime)."""
    avg = _weighted_averages(rows)
    try:
        a = relative_efficiency(avg[(_MACHINE_CODEC, _MACHINE_METRIC)],
                                avg[(reference, _MACHINE_METRIC)])
    except KeyError as exc:
        raise ValueError(f"missing machine-task BD-Rate for {exc}") from exc
    report = BreakEvenReport(machine_factor=a)
    human_metrics = sorted({m for (_, m) in avg if m != _MACHINE_METRIC})
    for metric in human_metrics:
        for codec in _HUMAN_CODECS:
            if (codec, metric) not in avg or (reference, metric) not in avg:
                continue
            b = relative_efficiency(avg[(codec, metric)], avg[(reference, metric)])
            report.human_factors[(metric, codec)] = b
            report.cells[(metric, codec)] = break_even(a, b)
    if not report.cells:
        raise ValueError("no (human metric, codec) pair present in the summary")
    return report
