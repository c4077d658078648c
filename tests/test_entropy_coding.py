"""Tests for the Laplace-box probability model and the range coder."""

import hashlib
import math
import sys
import tracemalloc

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

    @pytest.mark.parametrize("plane, index", [
        ([2.7, -1.2, 0.5], 0),
        ([0.0, 3.0, np.nan], 2),
        ([[1.0, -0.0], [np.inf, 2.0]], 2),
        ([4.0, -np.inf], 1),
        ([-7.0, -2.5], 1),
    ])
    def test_non_integral_symbols_refused(self, plane, index):
        # refused before the int64 cast, which would truncate 2.7 to 2
        plane = np.array(plane)
        field = LaplaceParamField(np.zeros(plane.shape), np.ones(plane.shape))
        with pytest.raises(ValueError, match=f"at flat index {index} is not an integer") as err:
            range_encode(plane, field)
        assert not isinstance(err.value, SupportError)

    def test_integral_floats_accepted(self):
        symbols = np.array([3.0, -2.0, -0.0, 64.0])
        field = LaplaceParamField(np.zeros(4), np.full(4, 2.0))
        data = range_encode(symbols, field)
        assert data == range_encode(symbols.astype(np.int64), field)
        assert np.array_equal(range_decode(data, field), symbols)

    def test_memory_per_symbol_is_bounded(self):
        # Neither direction holds a Python list as long as the plane: a list
        # of ints costs 8 bytes a slot plus an object per value past 256.
        symbols, field = codec_like_case(np.random.default_rng(11), 50_000, 1024)
        data = range_encode(symbols, field, half_width=1024)   # fills the row cache
        for call in (lambda: range_encode(symbols, field, half_width=1024),
                     lambda: range_decode(data, field, half_width=1024)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 100 * symbols.size

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


def carry_plane(seed):
    """A small zero-mean plane of one quarter-octave scale, clipped to +/- 64."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 401))
    scale = 2.0 ** (int(rng.integers(-4, 25)) / 4)
    symbols = np.clip(np.round(rng.laplace(0.0, scale, n)), -64, 64).astype(np.int64)
    return symbols, LaplaceParamField(np.zeros(n), np.full(n, scale))


# Found by instrumenting the coder's carry: seed 7's flush value overflows 64
# bits, so its carry reaches bytes already written, and one carry of seed
# 6341's stream turns two consecutive 0xFF bytes into 0x00.  The digests pin
# the streams of the carry-propagating coder these planes were searched on.
@pytest.mark.parametrize("seed, size, digest", [
    (7, 378, "d2d3caed59124ec6b94ec31252d6ba76ed986447921ec9cca1905c60a96a41dd"),
    (6341, 394, "6dac704adbe3a457d882bd93d05a704be9c95d6c1bbfa75bf851ca1d00ff72fb"),
], ids=["flush-carries", "carry-crosses-two-ff"])
def test_carries_keep_their_bytes(seed, size, digest):
    symbols, field = carry_plane(seed)
    assert symbols.size == size
    data = range_encode(symbols, field, half_width=64)
    assert hashlib.sha256(data).hexdigest() == digest
    assert np.array_equal(range_decode(data, field, half_width=64), symbols)


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
    """(lowest symbol, integer CDF row) per position, as the coder finds them."""
    inv, bases, records = range_coder._cdf_tables(params, half_width)
    return [(int(base), records[u][-1]) for base, u in zip(bases, inv)]


def held_bytes(record):
    """What one cache entry holds: its row, its list and the list's int objects."""
    *_, listed, _, row = record
    return row.nbytes + sys.getsizeof(listed) + sum(map(sys.getsizeof, listed))


def codec_like_case(rng, n, half_width):
    """Integer mus and quarter-octave palette scales, as the codec's planes have."""
    mu = rng.integers(-3, 4, n).astype(np.float64)
    scale = 2.0 ** (rng.integers(-4, 24, n) / 4)
    symbols = np.clip(quantize(mu + rng.laplace(0.0, 1.0, n) * scale),
                      mu - half_width, mu + half_width)
    return symbols.astype(np.int64), LaplaceParamField(mu, scale)


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
        entries = cache._entries.values()
        assert cache.nbytes == sum(map(range_coder._entry_bytes, entries))
        assert all(held_bytes(e) <= range_coder._entry_bytes(e) for e in entries)
        # one batch larger than the bound is used but not kept
        n = cache.max_bytes // (130 * 8) + 1
        field = LaplaceParamField(rng.uniform(-20, 20, n), rng.uniform(0.04, 10.0, n))
        before = len(cache._entries)
        range_decode(range_encode(np.round(field.mu).astype(np.int64), field), field)
        assert len(cache._entries) <= before and cache.nbytes <= cache.max_bytes

    def test_the_bound_counts_the_decode_lists(self, monkeypatch):
        # generic float traffic through a small cache: what it holds, lists
        # and their ints included, never exceeds the bound, and it is emptied
        cache = range_coder._CdfRowCache(256 << 10)
        monkeypatch.setattr(range_coder, "_ROW_CACHE", cache)
        rng = np.random.default_rng(99)
        sizes = []
        for _ in range(200):
            symbols, field = random_case(rng, (8,))
            assert np.array_equal(range_decode(range_encode(symbols, field), field), symbols)
            assert sum(map(held_bytes, cache._entries.values())) <= cache.max_bytes
            sizes.append(len(cache._entries))
        assert max(sizes) > 8 and min(b - a for a, b in zip(sizes, sizes[1:])) < 0

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
        assert sum(built) == 1 and len(empty_cache._entries) == 1
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
        assert empty_cache._entries
        assert all(frac == 0.0 for frac, _, _ in empty_cache._entries)

    def test_table_rows_reads_what_the_coder_reads(self, empty_cache):
        symbols, field = codec_like_case(np.random.default_rng(11), 300, 1024)
        inv, bases, records = range_coder._cdf_tables(field, 1024)
        rows = table_rows(field, 1024)
        assert len(rows) == symbols.size
        for (base, row), mu, scale, u, b in zip(rows, field.mu, field.scale, inv, bases):
            assert base == b and row is records[u][-1]
            fresh_base, fresh = fresh_row(mu, scale, 1024)
            assert base == fresh_base and np.array_equal(row, fresh)

    def test_each_row_and_record_is_built_once(self, monkeypatch, empty_cache):
        rows, records = [], []
        build, record = range_coder._build_rows, range_coder._decode_record

        def build_spy(fracs, scales, half_width):
            rows.append(fracs.size)
            return build(fracs, scales, half_width)

        def record_spy(row, half_width):
            records.append(half_width)
            return record(row, half_width)

        monkeypatch.setattr(range_coder, "_build_rows", build_spy)
        monkeypatch.setattr(range_coder, "_decode_record", record_spy)
        symbols, field = codec_like_case(np.random.default_rng(12), 2000, 1024)
        bs = range_encode(symbols, field, half_width=1024)
        built = (sum(rows), len(records))
        for _ in range(2):   # one encode and two decodes build each row and record once
            assert np.array_equal(range_decode(bs, field, half_width=1024), symbols)
        assert (sum(rows), len(records)) == built
        assert built == (len(empty_cache._entries),) * 2 and built[0] > 10

    def test_a_batch_over_the_bound_keeps_nothing(self, empty_cache):
        symbols, field = codec_like_case(np.random.default_rng(13), 1000, 1024)
        range_decode(range_encode(symbols, field, half_width=1024), field, half_width=1024)
        before, nbytes = dict(empty_cache._entries), empty_cache.nbytes
        assert before and nbytes == sum(map(range_coder._entry_bytes, before.values()))
        # a batch too large to keep is used by its call, and the cache is unchanged
        n = empty_cache.max_bytes // (2050 * 8) + 1
        mu = np.linspace(-0.4, 0.4, n)
        field = LaplaceParamField(mu, np.full(n, 2.0))
        bs = range_encode(quantize(mu), field, half_width=1024)
        assert np.array_equal(range_decode(bs, field, half_width=1024), quantize(mu))
        assert empty_cache._entries == before and empty_cache.nbytes == nbytes

    def test_roundtrip_around_the_listed_window(self, empty_cache):
        # Symbols within round(mu) +/- _LISTED are bisected in the record's
        # list; those beyond it, out to the support edge, in the numpy row.
        listed, hw = range_coder._LISTED, 1024
        offsets = [0, 1, -1, 2, -2, listed, -listed, listed + 1, -(listed + 1),
                   hw - 1, -(hw - 1), hw, -hw]
        mu = np.repeat([0.0, 7.0, -300.0], len(offsets))
        symbols = mu.astype(np.int64) + np.tile(offsets, 3)
        for scale in (1.0, 40.0, 300.0):
            field = LaplaceParamField(mu, np.full(mu.size, scale))
            bs = range_encode(symbols, field, half_width=hw)
            assert np.array_equal(range_decode(bs, field, half_width=hw), symbols)
        # the offsets +/- listed are the list's first and last symbols
        assert len(empty_cache._entries) == 3
        for record in empty_cache._entries.values():
            counts, first, row = record[-3:]
            assert first == hw - listed and len(counts) == 2 * listed + 2
            assert counts == row[first:first + len(counts)].tolist()

