"""Tests for the Laplace-box probability model and the range coder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svhm.entropy_model import (
    LaplaceParamField,
    PROB_FLOOR,
    SCALE_FLOOR,
    ShapeMismatchError,
    box_probability,
    estimate_rate,
    laplace_cdf,
    quantize,
)
from svhm import range_coder
from svhm.codec import CodecConfig, decode_sequence, encode_sequence
from svhm.codec.synthetic import textured_scene
from svhm.codec.transform import QUALITY_STEPS
from svhm.range_coder import CorruptStreamError, SupportError, range_decode, range_encode


def oracle_box_probability(k, mu, b):
    """Independent recomputation from the Laplace CDF definition."""
    b = max(b, SCALE_FLOOR)

    def cdf(x):
        z = (x - mu) / b
        return 0.5 * math.exp(z) if z < 0 else 1.0 - 0.5 * math.exp(-z)

    return max(cdf(k + 0.5) - cdf(k - 0.5), PROB_FLOOR)


# ---------------------------------------------------------------------------
# Probability model
# ---------------------------------------------------------------------------

class TestBoxProbability:
    def test_scalar_returns_float(self):
        p = box_probability(0, 0.0, 1.0)
        assert isinstance(p, float)
        assert p == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(-30, 31))
            mu = float(rng.uniform(-20, 20))
            b = float(rng.uniform(0.001, 30.0))
            assert box_probability(k, mu, b) == pytest.approx(
                oracle_box_probability(k, mu, b), rel=1e-12)

    def test_symmetry_about_mu(self):
        assert box_probability(3, 5.0, 2.0) == pytest.approx(
            box_probability(7, 5.0, 2.0), rel=1e-12)

    def test_scale_floor(self):
        assert box_probability(0, 0.0, 1e-9) == box_probability(0, 0.0, SCALE_FLOOR)

    def test_probability_floor(self):
        assert box_probability(1000, 0.0, 0.1) == PROB_FLOOR

    def test_mass_sums_near_one(self):
        ks = np.arange(-200, 201)
        total = float(np.sum(box_probability(ks, 0.3, 4.0)))
        # floors add a little mass; never less than 1
        assert 1.0 <= total <= 1.0 + 401 * PROB_FLOOR

    def test_vectorized_broadcast(self):
        ks = np.arange(-2, 3)
        mus = np.zeros(5)
        out = box_probability(ks, mus, 1.5)
        assert out.shape == (5,)
        assert out[2] == max(out)

    def test_cdf_midpoint(self):
        assert float(laplace_cdf(2.0, 2.0, 3.0)) == pytest.approx(0.5, abs=1e-12)


class TestQuantize:
    def test_round_half_away_from_zero(self):
        x = np.array([-2.5, -1.5, -0.5, -0.49, 0.0, 0.49, 0.5, 1.5, 2.5])
        assert np.array_equal(quantize(x), [-3, -2, -1, 0, 0, 0, 1, 2, 3])

    def test_dtype_integer(self):
        assert quantize(np.array([1.2])).dtype == np.int64

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quantize(np.array([np.nan]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_quantize_within_half(self, xs):
        x = np.array(xs)
        s = quantize(x)
        assert np.all(np.abs(s - x) <= 0.5 + 1e-9)


class TestEstimateRate:
    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(13)
        mu = rng.uniform(-5, 5, (6, 7))
        scale = rng.uniform(0.05, 8.0, (6, 7))
        symbols = quantize(rng.uniform(-10, 10, (6, 7)))
        expected = sum(
            -math.log2(oracle_box_probability(int(symbols[i, j]), mu[i, j], scale[i, j]))
            for i in range(6) for j in range(7)
        )
        field = LaplaceParamField(mu, scale)
        assert estimate_rate(symbols, field) == pytest.approx(expected, rel=1e-12)

    def test_empty_plane(self):
        field = LaplaceParamField(np.zeros((0,)), np.full((0,), 1.0))
        assert estimate_rate(np.zeros((0,), dtype=np.int64), field) == 0.0

    def test_shape_mismatch(self):
        field = LaplaceParamField(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeMismatchError):
            estimate_rate(np.zeros((3, 2), dtype=np.int64), field)

    def test_worst_case_symbol_cost(self):
        field = LaplaceParamField(np.zeros(1), np.full(1, 0.04))
        rate = estimate_rate(np.array([60]), field)
        assert rate <= 16.0 + 1e-9


class TestLaplaceParamField:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            LaplaceParamField(np.zeros((2, 3)), np.ones((3, 2)))

    def test_scale_below_floor_rejected(self):
        with pytest.raises(ValueError):
            LaplaceParamField(np.zeros(3), np.full(3, 0.01))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LaplaceParamField(np.array([np.inf]), np.array([1.0]))


class TestBitstream:
    def test_range_encode_returns_bytes(self):
        field = LaplaceParamField(np.zeros(5), np.ones(5))
        bs = range_encode(np.array([0, 1, -1, 3, 0]), field)
        assert isinstance(bs, bytes) and len(bs) > 0
        assert bs.bit_length == 8 * len(bs)


# ---------------------------------------------------------------------------
# Range coder
# ---------------------------------------------------------------------------

def random_case(rng, shape, mu_span=20.0, scale_hi=10.0):
    mu = rng.uniform(-mu_span, mu_span, shape)
    scale = rng.uniform(0.04, scale_hi, shape)
    symbols = quantize(mu + rng.laplace(0.0, 1.0, shape) * scale)
    symbols = np.clip(symbols, np.ceil(mu - 64), np.floor(mu + 64))
    return symbols.astype(np.int64), LaplaceParamField(mu, scale)


class TestRangeCoder:
    def test_exact_roundtrip_2d(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            symbols, field = random_case(rng, (8, 11))
            out = range_decode(range_encode(symbols, field), field)
            assert np.array_equal(out, symbols)

    def test_exact_roundtrip_3d(self):
        rng = np.random.default_rng(1)
        symbols, field = random_case(rng, (3, 4, 5))
        out = range_decode(range_encode(symbols, field), field)
        assert out.shape == (3, 4, 5)
        assert np.array_equal(out, symbols)

    def test_empty_plane(self):
        field = LaplaceParamField(np.zeros((0,)), np.full((0,), 1.0))
        bs = range_encode(np.zeros((0,), dtype=np.int64), field)
        assert np.array_equal(range_decode(bs, field), np.zeros((0,), dtype=np.int64))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        symbols, field = random_case(rng, (6, 6))
        assert range_encode(symbols, field) == range_encode(symbols, field)

    def test_support_error_message(self):
        field = LaplaceParamField(np.zeros(3), np.ones(3))
        with pytest.raises(SupportError, match=r"symbol 65 at flat index 1 outside mu \+/- 64"):
            range_encode(np.array([0, 65, 0]), field)

    def test_wider_half_width_accepts(self):
        field = LaplaceParamField(np.zeros(3), np.full(3, 4.0))
        symbols = np.array([0, 500, -120])
        bs = range_encode(symbols, field, half_width=1024)
        assert np.array_equal(range_decode(bs, field, half_width=1024), symbols)

    @pytest.mark.parametrize("half_width", [1, 2, 64, 1024])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_roundtrip_near_mode_and_support_edges(self, half_width, data):
        # The decoder resolves round(mu) and round(mu) +/- 1 without a search
        # and bisects the rest, so every offset class must come back exactly,
        # up to the support edges the encoder admits (|symbol - mu| <= hw).
        n = data.draw(st.integers(1, 40))
        floats = lambda lo, hi: st.lists(st.floats(lo, hi), min_size=n, max_size=n)
        mu = np.array(data.draw(floats(-50.0, 50.0)))
        scale = np.array(data.draw(floats(SCALE_FLOOR, 20.0)))
        offsets = (0, 1, -1, 2, -2, half_width, -half_width)
        off = np.array(data.draw(st.lists(st.sampled_from(offsets), min_size=n, max_size=n)))
        symbols = np.clip(quantize(mu) + off, np.ceil(mu - half_width),
                          np.floor(mu + half_width)).astype(np.int64)
        field = LaplaceParamField(mu, scale)
        bs = range_encode(symbols, field, half_width=half_width)
        assert np.array_equal(range_decode(bs, field, half_width=half_width), symbols)

    def test_corruption_detected(self):
        rng = np.random.default_rng(3)
        symbols, field = random_case(rng, (16, 16))
        bs = range_encode(symbols, field)
        for pos in (0, len(bs) // 2, len(bs) - 1):
            bad = bytearray(bs)
            bad[pos] ^= 0x41
            with pytest.raises(CorruptStreamError):
                range_decode(bytes(bad), field)

    def test_truncation_detected(self):
        rng = np.random.default_rng(4)
        symbols, field = random_case(rng, (16, 16))
        bs = range_encode(symbols, field)
        # a consistently shortened payload is caught by the checksum
        with pytest.raises(CorruptStreamError):
            range_decode(bs[:-3], field)

    def test_appended_bytes_refused(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            symbols, field = random_case(rng, (5, 7))
            data = range_encode(symbols, field)
            for junk in (b"\x00", b"\xff", b"junk"):
                with pytest.raises(CorruptStreamError):
                    range_decode(data + junk, field)

    def test_shape_mismatch(self):
        field = LaplaceParamField(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeMismatchError):
            range_encode(np.zeros((4, 1), dtype=np.int64), field)

    def test_rate_close_to_estimate(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            symbols, field = random_case(rng, (12, 12))
            bs = range_encode(symbols, field)
            est = estimate_rate(symbols, field)
            assert bs.bit_length <= est * 1.01 + 64.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_roundtrip_property(self, seed, n):
        rng = np.random.default_rng(seed)
        symbols, field = random_case(rng, (n,), mu_span=8.0, scale_hi=5.0)
        bs = range_encode(symbols, field)
        assert np.array_equal(range_decode(bs, field), symbols)
        assert bs.bit_length <= estimate_rate(symbols, field) * 1.01 + 64.0


# ---------------------------------------------------------------------------
# Integer CDF row cache
# ---------------------------------------------------------------------------

def fresh_row(mu, scale, half_width):
    """One integer CDF row built on its own from the probability model."""
    base = int(np.sign(mu) * np.floor(abs(mu) + 0.5)) - half_width
    ks = np.arange(base, base + 2 * half_width + 1, dtype=np.float64)
    counts = np.ceil(box_probability(ks, mu, max(scale, SCALE_FLOOR)) * (1 << 20))
    return base, np.concatenate([[0], np.cumsum(counts.astype(np.int64))])


def table_rows(params, half_width):
    inv, bases, cums = range_coder._cdf_tables(params, half_width)
    return [(int(base), cums[u]) for base, u in zip(bases, inv)]


class TestCdfRowCache:
    def test_cached_rows_match_fresh_build(self, monkeypatch):
        dc_levels = [1024.0 / d for d in QUALITY_STEPS]
        mus = [-0.0, 0.0, *dc_levels, -0.0, 2.5, -3.5]
        scales = [SCALE_FLOOR - 1e-13, 1.0, SCALE_FLOOR, 0.7, 12.0, 300.0,
                  SCALE_FLOOR, 2.0, SCALE_FLOOR - 1e-13]
        params = LaplaceParamField(np.array(mus), np.array(scales))
        filled = table_rows(params, 1024)

        def no_build(*args):
            raise AssertionError("row rebuilt instead of read from the cache")

        monkeypatch.setattr(range_coder, "_build_rows", no_build)
        cached = table_rows(params, 1024)
        for mu, scale, first, again in zip(mus, scales, filled, cached):
            base, row = fresh_row(mu, scale, 1024)
            assert first[0] == again[0] == base
            assert np.array_equal(first[1], row) and np.array_equal(again[1], row)

    def test_half_width_is_part_of_the_key(self):
        params = LaplaceParamField(np.array([3.0]), np.array([1.5]))
        (b64, r64), = table_rows(params, 64)
        (b1024, r1024), = table_rows(params, 1024)
        assert (b64, r64.size) == (3 - 64, 130)
        assert (b1024, r1024.size) == (3 - 1024, 2050)
        for (base, row), hw in (((b64, r64), 64), ((b1024, r1024), 1024)):
            fresh_base, fresh = fresh_row(3.0, 1.5, hw)
            assert base == fresh_base and np.array_equal(row, fresh)
        symbols = np.array([3])
        for hw in (64, 1024):
            bs = range_encode(symbols, params, half_width=hw)
            assert np.array_equal(range_decode(bs, params, half_width=hw), symbols)

    def test_bounded_under_random_float_traffic(self):
        cache = range_coder._ROW_CACHE
        rng = np.random.default_rng(99)
        for _ in range(300):
            symbols, field = random_case(rng, (64,))
            bs = range_encode(symbols, field)
            assert np.array_equal(range_decode(bs, field), symbols)
            assert cache.nbytes <= cache.max_bytes
        assert cache.nbytes == sum(row.nbytes for row in cache._rows.values())
        # one batch larger than the bound is used but not kept
        n = cache.max_bytes // (130 * 8) + 1
        field = LaplaceParamField(rng.uniform(-20, 20, n), rng.uniform(0.04, 10.0, n))
        before = len(cache._rows)
        range_decode(range_encode(np.round(field.mu).astype(np.int64), field), field)
        assert len(cache._rows) <= before and cache.nbytes <= cache.max_bytes

    @pytest.fixture
    def empty_cache(self, monkeypatch):
        cache = range_coder._CdfRowCache(range_coder._CACHE_MAX_BYTES)
        monkeypatch.setattr(range_coder, "_ROW_CACHE", cache)
        return cache

    def test_integer_mus_share_one_row(self, monkeypatch, empty_cache):
        # one shape placed at 1,001 integer centres: keyed on absolute mu the
        # batch would be 16 MB, past the bound, and rebuilt on every call
        built = []
        build = range_coder._build_rows

        def spy(fracs, scales, half_width):
            built.append(fracs.size)
            return build(fracs, scales, half_width)

        monkeypatch.setattr(range_coder, "_build_rows", spy)
        mu = np.arange(-500, 501, dtype=np.float64)
        field = LaplaceParamField(mu, np.full(mu.size, 3.0))
        symbols = mu.astype(np.int64) + np.random.default_rng(5).integers(-30, 31, mu.size)
        bs = range_encode(symbols, field, half_width=1024)
        assert np.array_equal(range_decode(bs, field, half_width=1024), symbols)
        assert sum(built) == 1 and len(empty_cache._rows) == 1
        rows = table_rows(field, 1024)
        for i in (0, 500, 1000):
            base, row = fresh_row(mu[i], 3.0, 1024)
            assert rows[i][0] == base and np.array_equal(rows[i][1], row)

    def test_codec_rows_have_integer_centres(self, empty_cache):
        frames = textured_scene(8, 144, 176, seed=1)
        for q in range(4):
            stream, _ = encode_sequence(frames, CodecConfig(quality=q, gop=4))
            _, report = decode_sequence(stream)
            assert report.error is None
        assert empty_cache._rows
        assert all(frac == 0.0 for frac, _, _ in empty_cache._rows)
