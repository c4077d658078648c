"""Tests for the scalable codec: transform, motion, modes, coding, container,
and the end-to-end encode/decode pipelines."""

import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svhm.codec import (
    CodecConfig,
    ContainerError,
    Frame,
    ScalableBitstream,
    decode_sequence,
    encode_sequence,
)
from svhm.cli import EXIT_OK, EXIT_USAGE, main as cli_main
from svhm.codec import coding, container, motion, transform as tf
from svhm.codec.container import FrameRecord
from svhm.codec.frames import rgb_to_ycbcr, ycbcr_to_rgb
from svhm.codec.modes import (
    ALPHA_FLOOR,
    ModeMaps,
    box_filter5,
    combine_predictor,
    derive_mode_maps,
)
from svhm.codec.motion import FlowField, compensate, estimate_motion
from svhm.codec.synthetic import translating_square, textured_scene
from svhm.codec.y4m import Y4MError, read_y4m, read_yuv420, write_y4m
from svhm.entropy_model import LaplaceParamField
from svhm.range_coder import CorruptStreamError, SupportError, range_decode, range_encode


def random_frame(rng, h=48, w=56):
    return Frame(np.stack([rng.uniform(0, 255, (h, w)), rng.uniform(0, 255, (h, w)),
                           rng.uniform(0, 255, (h, w))]))


# ---------------------------------------------------------------------------
# Transform
# ---------------------------------------------------------------------------

class TestTransform:
    def test_quality_ladder(self):
        assert [tf.quality_step(q) for q in range(4)] == [32.0, 16.0, 8.0, 4.0]
        with pytest.raises(ValueError):
            tf.quality_step(4)
        with pytest.raises(ValueError):
            tf.quality_step(-1)

    def test_dct_orthonormal(self):
        assert np.allclose(tf.DCT @ tf.DCT.T, np.eye(tf.BLOCK), atol=1e-12)

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        blocks = rng.uniform(-255, 255, (3, 5, 8, 8))
        assert np.allclose(tf.inverse(tf.forward(blocks)), blocks, atol=1e-10)

    def test_energy_preserved(self):
        rng = np.random.default_rng(1)
        blocks = rng.uniform(-100, 100, (2, 2, 8, 8))
        assert np.sum(tf.forward(blocks) ** 2) == pytest.approx(np.sum(blocks ** 2))

    def test_blockify_roundtrip_nonmultiple(self):
        rng = np.random.default_rng(2)
        plane = rng.uniform(0, 255, (19, 21))
        assert np.array_equal(tf.unblockify(tf.blockify(plane), 19, 21), plane)

    def test_pixel_error_bound_is_sound(self):
        rng = np.random.default_rng(3)
        delta = 8.0
        for _ in range(50):
            coeff_err = rng.uniform(-delta / 2, delta / 2, (1, 1, 8, 8))
            pix_err = tf.inverse(coeff_err)
            assert np.max(np.abs(pix_err)) <= tf.pixel_error_bound(delta) + 1e-9


# ---------------------------------------------------------------------------
# Frames and color
# ---------------------------------------------------------------------------

class TestFrames:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((2, 4, 4)))
        with pytest.raises(ValueError):
            Frame(np.zeros((3, 4)))

    def test_luma_weights(self):
        f = Frame(np.stack([np.full((2, 2), 100.0), np.full((2, 2), 50.0), np.full((2, 2), 20.0)]))
        assert np.allclose(f.luma(), 0.299 * 100 + 0.587 * 50 + 0.114 * 20)

    def test_ycbcr_roundtrip(self):
        rng = np.random.default_rng(4)
        f = random_frame(rng, 8, 8)
        y, cb, cr = rgb_to_ycbcr(f)
        back = ycbcr_to_rgb(y, cb, cr)
        assert f.allclose(back, tol=1e-3)


# ---------------------------------------------------------------------------
# Motion
# ---------------------------------------------------------------------------

def reference_estimate_motion(cur, ref, block, search, static=motion.MOTION_STATIC):
    """The original per-candidate full search, kept as the oracle for
    ``estimate_motion``: clamped shifts, zero-padded block sums and a running
    best with the documented tie rule.  A block whose zero-vector SAD is at
    most ``static`` times its in-frame pixel count keeps the zero vector."""
    def block_sums(err):
        h, w = err.shape
        err = np.pad(err, ((0, (-h) % block), (0, (-w) % block)), mode="constant")
        H, W = err.shape
        return err.reshape(H // block, block, W // block, block).sum(axis=(1, 3))

    def shift_clamped(plane, dy, dx):
        h, w = plane.shape
        iy = np.clip(np.arange(h) + dy, 0, h - 1)
        ix = np.clip(np.arange(w) + dx, 0, w - 1)
        return plane[iy][:, ix]

    cl, rl = cur.luma(), ref.luma()
    shape = (-(-cur.height // block), -(-cur.width // block))
    best_sad = np.full(shape, np.inf)
    best_cost = np.full(shape, np.inf)
    best_dx = np.zeros(shape, dtype=np.int64)
    best_dy = np.zeros(shape, dtype=np.int64)
    for dy in range(-search, search + 1):
        for dx in range(-search, search + 1):
            sad = block_sums(np.abs(cl - shift_clamped(rl, dy, dx)))
            cost = abs(dx) + abs(dy)
            better = (sad < best_sad) | ((sad == best_sad) & (cost < best_cost))
            best_sad = np.where(better, sad, best_sad)
            best_cost = np.where(better, cost, best_cost)
            best_dx = np.where(better, dx, best_dx)
            best_dy = np.where(better, dy, best_dy)
    still = block_sums(np.abs(cl - rl)) <= static * block_sums(np.ones_like(cl))
    return np.where(still, 0, best_dx), np.where(still, 0, best_dy)


class TestMotion:
    @settings(max_examples=100, deadline=None)
    @given(h=st.integers(1, 70), w=st.integers(1, 70),
           block=st.sampled_from([8, 16, 32]), search=st.integers(1, 12),
           kind=st.sampled_from(["uniform", "flat", "small_int", "patch", "flat_patch"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_search(self, h, w, block, search, kind, seed):
        # Flat and small-integer planes make many exact SAD ties, so the tie
        # rule decides most blocks.  The motion constants are patched to
        # cover other block sizes and search ranges.  Every example runs at
        # a static threshold of 0, where only a zero SAD stops a block (the
        # full search), and at MOTION_STATIC.  A "patch" frame is its
        # small-integer reference with a rectangle of at most one block
        # redrawn, so few blocks remain and each is searched alone.  A "flat_patch" frame is
        # a flat reference with the rectangle at another level, so those
        # blocks tie at every candidate.  100 examples keep about 20 for
        # each of the other kinds.
        rng = np.random.default_rng(seed)

        def plane():
            if kind == "uniform":
                return rng.uniform(0, 255, (h, w))
            if kind in ("flat", "flat_patch"):
                return np.full((h, w), float(rng.integers(0, 256)))
            return rng.integers(0, 3, (h, w)).astype(np.float64)

        ref = Frame(np.stack([plane(), plane(), plane()]))
        if kind.endswith("patch"):
            cur = Frame(ref.rgb.copy())
            y0, x0 = rng.integers(0, h), rng.integers(0, w)
            rect = cur.rgb[:, y0 : y0 + rng.integers(1, block + 1),
                           x0 : x0 + rng.integers(1, block + 1)]
            rect[...] = (rng.uniform(0, 255, rect.shape) if kind == "patch"
                         else float(rng.integers(0, 256)))
        else:
            cur = Frame(np.stack([plane(), plane(), plane()]))
        for static in (0.0, motion.MOTION_STATIC):
            with patch.multiple(motion, MOTION_BLOCK=block, MOTION_SEARCH=search,
                                MOTION_STATIC=static):
                flow = estimate_motion(cur, ref)
            dx, dy = reference_estimate_motion(cur, ref, block, search, static)
            assert np.array_equal(flow.dx, dx) and np.array_equal(flow.dy, dy), static

    @pytest.mark.parametrize("others", ["still", "moving"])
    @pytest.mark.parametrize("w", [64, 56], ids=["whole", "edge"])
    def test_static_boundary(self, w, others):
        # Block (1, 3) is a faint texture shifted by one pixel, so the search
        # finds a better vector than zero.  With its zero-vector SAD exactly
        # tau * n it keeps the zero vector; with tau * n one float below, it
        # is searched.  n is 256, or 128 for the block cut by the right edge,
        # so tau * n is exact.  The other blocks are the reference itself
        # (each remaining block searched alone) or the reference brightened
        # by 8, well above tau (the frame kernel).
        rng = np.random.default_rng(7)
        big = rng.uniform(0, 4, (3, 48, w + 1))
        ref = Frame(big[..., :w])
        cur = Frame(big[..., :w] + (8.0 if others == "moving" else 0.0))
        cur.rgb[:, 16:32, 48:] = big[:, 16:32, 49:]
        n = 16 * (w - 48)
        err = np.pad(np.abs(cur.luma() - ref.luma()), ((0, 0), (0, 64 - w)))
        sad = err.reshape(3, 16, 4, 16).sum(axis=(1, 3))[1, 3]   # the search's own sum
        assert sad / n * n == sad
        for tau, want_zero in ((sad / n, True), (np.nextafter(sad, 0) / n, False)):
            with patch.object(motion, "MOTION_STATIC", tau), \
                    patch.object(motion, "_sad_grids", wraps=motion._sad_grids) as kernel:
                flow = estimate_motion(cur, ref)
            assert kernel.called == (others == "moving")
            assert (flow.dx[1, 3] == flow.dy[1, 3] == 0) == want_zero, tau
            dx, dy = reference_estimate_motion(cur, ref, 16, 8, tau)
            assert np.array_equal(flow.dx, dx) and np.array_equal(flow.dy, dy)

    @pytest.mark.parametrize("kind", ["uniform", "flat", "small_int", "moved"])
    @pytest.mark.parametrize("block", [8, 16, 32])
    def test_sad_grids_are_numpys_block_sums(self, block, kind):
        # Every summed candidate's SAD grid, not only the winner, must equal
        # numpy's reduction bit for bit.  On uniform planes a float sum
        # depends on its order, so reordering any addition of the kernel
        # fails here; sides 1..17 give frames one block wide, where numpy sums
        # a block as one run.  Each block's bound stays below its SAD, to the
        # margin.  A grid the bounds skipped is +inf, and each of its blocks'
        # true SADs must exceed that block's least SAD.  A translated
        # texture ("moved") skips some.  A frame more than one block wide
        # can have its blocks searched one at a time; those SADs must equal
        # numpy's too, partial edge blocks included.
        rng = np.random.default_rng(block)
        search = motion.MOTION_SEARCH
        nd = 2 * search + 1
        sides = (1, 15, 16, 17, 33, 70)
        skipped = 0
        for h in sides:
            for w in sides:
                if kind == "uniform":
                    cl, rl = rng.uniform(0, 255, (2, h, w))
                elif kind == "flat":
                    cl, rl = np.full((2, h, w), float(rng.integers(0, 256)))
                elif kind == "small_int":
                    cl, rl = rng.integers(0, 3, (2, h, w)).astype(np.float64)
                else:
                    big = rng.uniform(0, 255, (h + 6, w + 6))
                    cl, rl = big[1 : h + 1, 5 : w + 5], big[3 : h + 3, 3 : w + 3]
                nby, nbx = -(-h // block), -(-w // block)
                padded_ref = np.pad(rl, search, mode="edge")
                want = np.empty((nd, nd, nby, nbx))
                for dy in range(nd):
                    for dx in range(nd):
                        err = np.abs(cl - padded_ref[dy : dy + h, dx : dx + w])
                        err = np.pad(err, ((0, nby * block - h), (0, nbx * block - w)))
                        want[dy, dx] = err.reshape(nby, block, nbx, block).sum(axis=(1, 3))
                # the bound is below every SAD, to the margin; without a whole
                # sub-block it is 0
                bounds = motion._bounds(cl, padded_ref, block)
                tol = 1e-9 * block**2 * (np.abs(cl).max() + np.abs(rl).max())
                assert np.all(bounds <= want + tol), (h, w)
                assert min(h, w) >= motion._SUB or not bounds.any(), (h, w)
                with patch.object(motion, "MOTION_BLOCK", block):
                    grids = motion._sad_grids(cl, rl)
                summed = np.isfinite(grids).all(axis=(2, 3))
                for dy, dx in zip(*np.nonzero(summed)):
                    assert grids[dy, dx].tobytes() == want[dy, dx].tobytes(), (h, w, dy, dx)
                assert np.all(grids[~summed] == np.inf)
                assert np.all(want[~summed] > want.min(axis=(0, 1))), (h, w)
                skipped += np.count_nonzero(~summed)
                if nbx > 1:
                    with patch.object(motion, "MOTION_BLOCK", block):
                        for by in range(nby):
                            for bx in range(nbx):
                                one = motion._block_sads(cl, padded_ref, by, bx)
                                assert one.tobytes() == want[..., by, bx].tobytes(), (h, w, by, bx)
        if kind == "moved":
            assert skipped

    @pytest.mark.parametrize("reference", ["flat", "translated"])
    def test_pruning_matches_reference_search(self, reference):
        # Every frame size takes the same search, so a 176x144 frame and a
        # 64x64 crop behave alike.  Against a flat reference every candidate
        # of a block has the same bound and SAD, so no candidate is skipped.
        # A translated texture skips candidates.
        rng = np.random.default_rng(11)
        big = rng.uniform(0, 255, (3, 160, 192))
        for h, w in ((144, 176), (64, 64)):
            cur = Frame(big[:, 4 : h + 4, 9 : w + 9])
            ref = Frame(np.full((3, h, w), 90.0) if reference == "flat"
                        else big[:, 6 : h + 6, 6 : w + 6])
            grids = motion._sad_grids(cur.luma(), ref.luma())
            skipped = np.isinf(grids).all(axis=(2, 3))
            assert skipped.any() == (reference == "translated"), (h, w)
            flow = estimate_motion(cur, ref)
            dx, dy = reference_estimate_motion(cur, ref, 16, 8)
            assert np.array_equal(flow.dx, dx) and np.array_equal(flow.dy, dy), (h, w)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", ["frame", "block"])
    def test_non_finite_pixel_matches_reference_search(self, path, value):
        # One pixel of the current frame is NaN or +-inf.  Its block's SAD is
        # then NaN or inf at every candidate, so it keeps the zero vector, and
        # no other block may lose a candidate to it: a NaN must never rule one
        # out.  A translated texture sends every block to the frame kernel;
        # the reference itself with one block redrawn leaves two blocks, each
        # searched alone.
        rng = np.random.default_rng(13)
        big = rng.uniform(0, 255, (3, 72, 72))
        ref = Frame(big[:, 4:68, 4:68])
        if path == "frame":
            cur = Frame(big[:, 2:66, 7:71].copy())
        else:
            cur = Frame(ref.rgb.copy())
            cur.rgb[:, 16:32, 32:48] = big[:, 18:34, 31:47]
        cur.rgb[:, 40, 21] = value
        with patch.object(motion, "_sad_grids", wraps=motion._sad_grids) as kernel:
            flow = estimate_motion(cur, ref)
        assert kernel.called == (path == "frame")
        dx, dy = reference_estimate_motion(cur, ref, 16, 8)
        assert np.array_equal(flow.dx, dx) and np.array_equal(flow.dy, dy)
        assert flow.dx[2, 1] == flow.dy[2, 1] == 0
        if path == "block":
            assert (flow.dx[1, 2], flow.dy[1, 2]) == (-5, -2)

    @pytest.mark.parametrize("clip", [
        translating_square(3, 64, seed=3), textured_scene(3, 48, 56, seed=1),
    ], ids=["square", "textured"])
    def test_matches_reference_on_clips(self, clip):
        for cur, ref in zip(clip[1:], clip):
            flow = estimate_motion(cur, ref)
            dx, dy = reference_estimate_motion(cur, ref, 16, 8)
            assert np.array_equal(flow.dx, dx) and np.array_equal(flow.dy, dy)

    def test_pure_translation_recovered(self):
        rng = np.random.default_rng(5)
        big = rng.uniform(0, 255, (80, 80))
        ref = Frame(np.stack([big[8:72, 8:72], big[8:72, 8:72], big[8:72, 8:72]]))
        cur = Frame(np.stack([big[5:69, 12:76], big[5:69, 12:76], big[5:69, 12:76]]))
        flow = estimate_motion(cur, ref)
        # interior blocks must find the exact (-3, +4) shift
        assert np.all(flow.dy[1:-1, 1:-1] == -3)
        assert np.all(flow.dx[1:-1, 1:-1] == 4)

    def test_flat_image_prefers_zero(self):
        f = Frame(np.stack([np.full((32, 32), 80.0), np.full((32, 32), 80.0),
                            np.full((32, 32), 80.0)]))
        flow = estimate_motion(f, f)
        assert np.all(flow.dx == 0) and np.all(flow.dy == 0)

    def test_compensate_matches_shift(self):
        rng = np.random.default_rng(6)
        ref = random_frame(rng, 32, 32)
        flow = FlowField(np.full((2, 2), 3), np.full((2, 2), -2))
        out = compensate(ref, flow)
        # interior pixels: out[y, x] = ref[y - 2, x + 3]
        assert np.array_equal(out.rgb[0][4:28, 4:28], ref.rgb[0][2:26, 7:31])

    def test_flowfield_validation(self):
        with pytest.raises(ValueError):
            FlowField(np.array([[9]]), np.array([[0]]))
        with pytest.raises(ValueError):
            FlowField(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Mode maps
# ---------------------------------------------------------------------------

class TestModes:
    def test_box_filter_constant(self):
        assert np.allclose(box_filter5(np.full((10, 12), 7.0)), 7.0)

    def test_box_filter_matches_direct(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 255, (9, 11))
        p = np.pad(x, 2, mode="edge")
        direct = np.array([[p[i:i + 5, j:j + 5].mean()
                            for j in range(11)] for i in range(9)])
        assert np.allclose(box_filter5(x), direct, atol=1e-9)

    def test_alpha_range_and_floor(self):
        rng = np.random.default_rng(8)
        prev = random_frame(rng, 32, 32)
        m = derive_mode_maps(prev, prev, FlowField.zero(32, 32))
        assert np.all(m.alpha == ALPHA_FLOOR)     # identical frames: floor
        assert np.all(m.beta == 0.0)              # zero flow: no blend
        cur = random_frame(rng, 32, 32)
        m2 = derive_mode_maps(prev, cur, FlowField.zero(32, 32))
        assert np.all((ALPHA_FLOOR <= m2.alpha) & (m2.alpha <= 1.0))

    def test_combine_predictor_limits(self):
        rng = np.random.default_rng(9)
        xbar, prev = random_frame(rng, 16, 16), random_frame(rng, 16, 16)
        ones = np.ones((16, 16))
        assert combine_predictor(xbar, prev, ModeMaps(ones, ones)).allclose(xbar)
        assert combine_predictor(xbar, prev, ModeMaps(ones, 0 * ones)).allclose(prev)


# ---------------------------------------------------------------------------
# Frame/flow coding
# ---------------------------------------------------------------------------

class TestCoding:
    def test_palette_scale_properties(self):
        rng = np.random.default_rng(10)
        b = rng.uniform(1e-4, 1000.0, 200)
        s = coding.palette_scale(b)
        # max grid point is the quarter-octave step just above the 256 clip
        assert np.all((0.04 <= s) & (s <= 0.04 * 2 ** (51 / 4) + 1e-9))
        assert np.allclose(coding.palette_scale(s), s)          # idempotent
        # quarter-octave grid: log2(s/0.04)*4 is integral
        assert np.allclose(np.round(np.log2(s / 0.04) * 4) , np.log2(s / 0.04) * 4,
                           atol=1e-9)

    def test_intra_roundtrip_and_error_bound(self):
        rng = np.random.default_rng(11)
        x = random_frame(rng, 40, 40)
        for q in range(4):
            payload, recon = coding.code_intra_frame(x, q)
            dec = coding.decode_intra_frame(payload, q, 40, 40)
            assert dec.allclose(recon)                    # decoder == encoder state
            bound = tf.pixel_error_bound(tf.quality_step(q))
            assert recon.allclose(x, tol=bound + 1e-9)

    def test_intra_distortion_decreases_with_quality(self):
        rng = np.random.default_rng(12)
        x = random_frame(rng, 40, 40)
        errs = []
        for q in range(4):
            _, recon = coding.code_intra_frame(x, q)
            errs.append(np.mean((recon.rgb[0] - x.rgb[0]) ** 2))
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_inter_roundtrip(self):
        rng = np.random.default_rng(13)
        xt = random_frame(rng, 32, 32)
        x = Frame(np.stack([np.clip(xt.rgb[0] + rng.normal(0, 4, (32, 32)), 0, 255),
                            np.clip(xt.rgb[1] + rng.normal(0, 4, (32, 32)), 0, 255),
                            np.clip(xt.rgb[2] + rng.normal(0, 4, (32, 32)), 0, 255)]))
        alpha = np.clip(rng.uniform(0, 1, (32, 32)), ALPHA_FLOOR, 1.0)
        payload, recon = coding.code_inter_frame(x, xt, alpha, 2)
        dec = coding.decode_inter_frame(payload, xt, alpha, 2)
        assert dec.allclose(recon)

    def test_all_skip_copies_predictor(self):
        rng = np.random.default_rng(14)
        xt = random_frame(rng, 32, 32)
        x = random_frame(rng, 32, 32)
        alpha = np.full((32, 32), ALPHA_FLOOR)
        payload, recon = coding.code_inter_frame(x, xt, alpha, 2)
        # every block skipped: reconstruction is the predictor (up to the
        # float rounding of alpha*p + (1 - alpha)*p)
        assert recon.allclose(Frame(np.clip(xt.rgb, 0.0, 255.0)), tol=1e-9)
        dec = coding.decode_inter_frame(payload, xt, alpha, 2)
        assert dec.allclose(recon)

    def test_all_skip_frame_has_empty_payload(self):
        rng = np.random.default_rng(18)
        xt = random_frame(rng, 32, 32)
        x = random_frame(rng, 32, 32)
        zero = np.zeros((32, 32))
        payload, recon = coding.code_inter_frame(x, xt, zero, 2)
        assert payload == b""
        dec = coding.decode_inter_frame(payload, xt, zero, 2)
        assert all(np.array_equal(p, q) for p, q in zip(dec.rgb, recon.rgb))
        with pytest.raises(CorruptStreamError, match="without kept blocks"):
            coding.decode_inter_frame(b"\x00", xt, zero, 2)

    def test_counts_0_1_and_64_roundtrip(self):
        # Three 8x8 blocks per plane: black (no nonzero coefficient, count
        # 0), flat gray (DC only, count 1) and gray plus the (7, 7) basis
        # function (last zigzag position, count 64).
        basis = np.outer(tf.DCT[7], tf.DCT[7])
        plane = np.hstack([np.zeros((8, 8)), np.full((8, 8), 128.0),
                           128.0 + 200.0 * basis])
        x = Frame(np.stack([plane, plane.copy(), plane.copy()]))
        black, ones = Frame(np.zeros((3, 8, 24))), np.ones((8, 24))
        for payload, recon, decode in [
            (*coding.code_intra_frame(x, 0),
             lambda p: coding.decode_intra_frame(p, 0, 8, 24)),
            (*coding.code_inter_frame(x, black, ones, 0),
             lambda p: coding.decode_inter_frame(p, black, ones, 0)),
        ]:
            counts = range_decode(container.unpack(payload, 2)[0],
                                  coding._count_params(9), half_width=coding.COUNT_SUPPORT)
            assert counts.tolist() == [0, 1, 64] * 3
            dec = decode(payload)
            assert all(np.array_equal(p, q) for p, q in zip(dec.rgb, recon.rgb))
            assert recon.allclose(x, tol=tf.pixel_error_bound(tf.quality_step(0)))

    @pytest.mark.parametrize("layer", ["intra", "enhancement"])
    def test_coded_field_is_the_masked_zigzag_field(self, layer):
        # _coded gathers only the masked positions; it must give what the
        # whole planes taken to zigzag order and then masked give.
        rng = np.random.default_rng(20)
        if layer == "intra":   # a broadcast field: one 8x8 row for every block
            params = coding._intra_model(2, 32, 40)[3]
            assert params.mu.strides[:2] == (0, 0)
        else:
            ctx, base = random_frame(rng, 32, 40), random_frame(rng, 32, 40)
            params = coding._inter_model(ctx, np.ones((32, 40)), 2, base)[3]
        counts = rng.integers(0, coding._COEFFS + 1, 3 * 4 * 5)
        counts[:3] = [0, 1, coding._COEFFS]
        mask, field = coding._coded(params, counts)
        assert mask.sum() == counts.sum()
        assert np.array_equal(field.mu, coding._zigzag(params.mu)[mask])
        assert np.array_equal(field.scale, coding._zigzag(params.scale)[mask])

    def test_negative_count_is_corrupt(self):
        # A hand-built intra payload for a 32x32 frame (16 blocks per plane)
        # whose count stream holds -1.
        counts = np.zeros(48, dtype=np.int64)
        counts[5] = -1
        empty = np.zeros(0, dtype=np.int64)
        payload = container.pack([
            range_encode(counts, coding._count_params(48),
                         half_width=coding.COUNT_SUPPORT),
            range_encode(empty, LaplaceParamField(empty, empty + 1.0),
                         half_width=coding.CODEC_SUPPORT),
        ])
        with pytest.raises(CorruptStreamError, match="negative coefficient count"):
            coding.decode_intra_frame(payload, 2, 32, 32)
        stream, _ = encode_sequence(translating_square(3, 32, seed=0),
                                    CodecConfig(quality=2, gop=2))
        stream.frames[2].base_signal = payload
        dec, report = decode_sequence(stream)
        assert len(dec) == 2
        assert report.error == "frame 2: negative coefficient count"

    def test_trailing_bytes_after_substreams_refused(self):
        x = textured_scene(1, 32, 32, seed=0)[0]
        payload, _ = coding.code_intra_frame(x, 2)
        with pytest.raises(ValueError, match="trailing bytes"):
            coding.decode_intra_frame(payload + b"junk", 2, 32, 32)
        stream, _ = encode_sequence(textured_scene(3, 32, 32, seed=0),
                                    CodecConfig(quality=2, gop=2))
        stream.frames[1].base_signal += b"junk"
        dec, report = decode_sequence(stream)
        assert len(dec) == 1
        assert report.error == "frame 1: trailing bytes after the last packed sub-stream"

    def test_coefficient_beyond_coder_support(self):
        # Pixels in [0, 255] cannot leave CODEC_SUPPORT; out-of-range pixels
        # are refused by the range coder's own bound, at either layer.
        rng = np.random.default_rng(19)
        hot = Frame(np.full((3, 16, 16), 1e5))
        with pytest.raises(SupportError,
                           match=r"symbol 25000 at flat index 0 outside mu \+/- 1024"):
            coding.code_intra_frame(hot, 0)
        ctx, base = random_frame(rng, 16, 16), random_frame(rng, 16, 16)
        with pytest.raises(SupportError, match=r"outside mu \+/- 1024"):
            coding.code_inter_frame(hot, ctx, np.ones((16, 16)), 3, extra=base)

    def test_skip_blocks_cost_less(self):
        rng = np.random.default_rng(15)
        xt = random_frame(rng, 32, 32)
        x = random_frame(rng, 32, 32)
        live = np.full((32, 32), 0.8)
        skip = np.full((32, 32), ALPHA_FLOOR)
        p_live, _ = coding.code_inter_frame(x, xt, live, 2)
        p_skip, _ = coding.code_inter_frame(x, xt, skip, 2)
        assert len(p_skip) < len(p_live) / 10

    def test_enhancement_context_params(self):
        rng = np.random.default_rng(16)
        ctx = random_frame(rng, 32, 32)
        base = random_frame(rng, 32, 32)
        x = random_frame(rng, 32, 32)
        ones = np.ones((32, 32))
        # q3's base step is 4.0, so the enhancement layer codes at 2.0
        payload, recon = coding.code_inter_frame(x, ctx, ones, 3, extra=base)
        dec = coding.decode_inter_frame(payload, ctx, ones, 3, extra=base)
        assert dec.allclose(recon)
        assert recon.allclose(x, tol=tf.pixel_error_bound(2.0) + 1e-9)

    def test_flow_roundtrip_lossless(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dx = rng.integers(-8, 9, (4, 5))
            dy = rng.integers(-8, 9, (4, 5))
            flow = FlowField(dx, dy)
            vbar = FlowField(rng.integers(-8, 9, (4, 5)), rng.integers(-8, 9, (4, 5)))
            payload = coding.code_flow(flow, vbar)
            out = coding.decode_flow(payload, vbar)
            assert np.array_equal(out.dx, dx) and np.array_equal(out.dy, dy)


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------

class TestContainer:
    def make_stream(self):
        return ScalableBitstream(176, 144, 32, 2, [
            FrameRecord(b"", b"intra-bytes", b"", b"enh0"),
            FrameRecord(b"mv1", b"sig1", b"emv1", b"enh1"),
        ])

    def test_serialize_roundtrip(self):
        s = self.make_stream()
        s2 = ScalableBitstream.deserialize(s.serialize())
        assert s2 == s

    def test_header_fields(self):
        raw = self.make_stream().serialize()
        assert raw[:4] == b"SVHM"
        assert raw[4] == 3
        assert int.from_bytes(raw[5:7], "little") == 176
        assert int.from_bytes(raw[7:9], "little") == 144
        assert int.from_bytes(raw[9:13], "little") == 2
        # gop, quality, then the motion block, search range and fusion byte
        assert raw[13:18] == bytes([32, 2, 16, 8, 32])

    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="magic"):
            ScalableBitstream.deserialize(b"JUNK" + self.make_stream().serialize()[4:])

    def test_bad_version(self):
        raw = bytearray(self.make_stream().serialize())
        raw[4] = 9
        with pytest.raises(ContainerError, match="version"):
            ScalableBitstream.deserialize(bytes(raw))

    def test_truncation(self):
        raw = self.make_stream().serialize()
        with pytest.raises(ContainerError, match="truncated"):
            ScalableBitstream.deserialize(raw[:-3])

    def test_trailing_bytes(self):
        raw = self.make_stream().serialize()
        with pytest.raises(ContainerError, match="trailing"):
            ScalableBitstream.deserialize(raw + b"\x00")

    @pytest.mark.parametrize("width, height", [
        (65535, 65535), (4097, 2160), (65535, 136),
    ])
    def test_pixel_cap_refused(self, width, height):
        # Parsing only: a refused header must never reach an allocation.
        raw = ScalableBitstream(width, height, 32, 2).serialize()
        with pytest.raises(ContainerError, match="pixel cap"):
            ScalableBitstream.deserialize(raw)

    @pytest.mark.parametrize("width, height", [(3840, 2160), (4096, 2160)])
    def test_uhd_header_accepted(self, width, height):
        raw = ScalableBitstream(width, height, 32, 2).serialize()
        assert ScalableBitstream.deserialize(raw).width == width

    def test_encoder_shares_the_size_check(self, monkeypatch):
        monkeypatch.setattr(container, "MAX_PIXELS", 32 * 32 - 1)
        with pytest.raises(ContainerError, match="pixel cap"):
            encode_sequence(translating_square(1, 32), CodecConfig())

    def test_strip_enhancement(self):
        s = self.make_stream()
        base = s.strip_enhancement()
        assert all(r.enh_motion == b"" and r.enh_context == b"" for r in base.frames)
        assert [r.substreams()[:2] for r in base.frames] == \
            [r.substreams()[:2] for r in s.frames]
        # original is untouched
        assert s.frames[1].enh_context == b"enh1"

    def test_pack_unpack(self):
        chunks = [b"", b"abc", b"\x00" * 7]
        raw = container.pack(chunks)
        assert container.unpack(raw, 3) == chunks
        with pytest.raises(ContainerError, match="truncated"):
            container.unpack(raw[:-2], 3)
        with pytest.raises(ContainerError, match="truncated"):
            container.unpack(raw[:2], 1)
        with pytest.raises(ContainerError, match="trailing bytes"):
            container.unpack(raw + b"\x00", 3)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def square_clip():
    return translating_square(frames=10, size=64, seed=0)


@pytest.fixture(scope="module")
def encoded(square_clip):
    config = CodecConfig(quality=2, gop=8)
    stream, report = encode_sequence(square_clip, config)
    return stream, report


class TestCodecConfig:
    def test_defaults_valid(self):
        CodecConfig()

    @pytest.mark.parametrize("kw", [
        {"quality": 4}, {"quality": -1}, {"gop": 0}, {"gop": 256},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            CodecConfig(**kw)


class TestPipeline:
    def test_decoder_matches_encoder(self, square_clip, encoded):
        stream, report = encoded
        dec, drep = decode_sequence(stream)
        assert len(dec) == len(square_clip)
        assert drep.error is None
        # re-encoding the clip yields the identical stream (determinism)
        stream2, _ = encode_sequence(square_clip, CodecConfig(quality=2, gop=8))
        assert stream2.serialize() == stream.serialize()

    def test_reconstruction_quality(self, square_clip, encoded):
        from svhm.evalkit import psnr_rgb
        stream, _ = encoded
        enh, _ = decode_sequence(stream, "base+enh")
        base, _ = decode_sequence(stream, "base")
        for x, b, e in zip(square_clip, base, enh):
            assert psnr_rgb(x, e) >= psnr_rgb(x, b)
        assert np.mean([psnr_rgb(x, e) for x, e in zip(square_clip, enh)]) > 35.0

    def test_strip_enhancement_preserves_base(self, encoded):
        stream, _ = encoded
        base_full, _ = decode_sequence(stream, "base")
        base_stripped, _ = decode_sequence(
            ScalableBitstream.deserialize(stream.strip_enhancement().serialize()),
            "base+enh")
        for a, b in zip(base_full, base_stripped):
            assert a.allclose(b)

    def test_report_consistent_with_stream(self, encoded):
        stream, report = encoded
        lengths = [[len(sub) for sub in r.substreams()] for r in stream.frames]
        assert report.total_bits() == 8 * sum(map(sum, lengths))
        assert report.total_bits("base") == 8 * sum(n[0] + n[1] for n in lengths)
        assert report.bpp() == pytest.approx(
            8 * sum(map(sum, lengths)) / (3 * 64 * 64 * 10))

    def test_bpp_monotone_in_quality(self, square_clip):
        bpps = []
        for q in range(4):
            _, report = encode_sequence(square_clip, CodecConfig(quality=q, gop=8))
            bpps.append(report.bpp())
        assert bpps[0] < bpps[1] < bpps[2] < bpps[3]

    def test_corrupt_frame_partial_decode(self, encoded):
        stream, _ = encoded
        damaged = ScalableBitstream.deserialize(stream.serialize())
        sig = bytearray(damaged.frames[5].base_signal)
        sig[len(sig) // 2] ^= 0xFF
        damaged.frames[5].base_signal = bytes(sig)
        dec, report = decode_sequence(damaged)
        assert len(dec) == 5
        assert report.error is not None and report.error.startswith("frame 5")

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            encode_sequence([], CodecConfig())

    def test_mixed_geometry_rejected(self, square_clip):
        bad = square_clip[:2] + [Frame(np.stack([np.zeros((32, 32)), np.zeros((32, 32)),
                                                 np.zeros((32, 32))]))]
        with pytest.raises(ValueError):
            encode_sequence(bad, CodecConfig())

    @pytest.mark.parametrize("enhancement", [True, False], ids=["enh", "base_only"])
    def test_encoder_reconstructions_match_decoder(self, monkeypatch, enhancement):
        # Record every frame the encoder reconstructs; the decoder must
        # output exactly those, bit for bit, across a GOP boundary.
        clip = textured_scene(7, 40, 48, seed=5)
        recon = {"base": [], "enh": []}
        code_intra, code_inter = coding.code_intra_frame, coding.code_inter_frame

        def intra(*args, **kwargs):
            payload, hat = code_intra(*args, **kwargs)
            recon["base"].append(hat)
            return payload, hat

        def inter(*args, **kwargs):
            payload, hat = code_inter(*args, **kwargs)
            recon["base" if kwargs.get("extra") is None else "enh"].append(hat)
            return payload, hat

        monkeypatch.setattr(coding, "code_intra_frame", intra)
        monkeypatch.setattr(coding, "code_inter_frame", inter)
        stream, _ = encode_sequence(
            clip, CodecConfig(quality=1, gop=3, enhancement=enhancement))
        monkeypatch.undo()
        assert len(recon["base"]) == 7
        assert len(recon["enh"]) == (7 if enhancement else 0)
        expected = {"base": recon["base"],
                    "base+enh": recon["enh"] if enhancement else recon["base"]}
        for layers, frames in expected.items():
            dec, report = decode_sequence(stream, layers)
            assert report.error is None and len(dec) == 7
            for a, b in zip(frames, dec):
                assert all(np.array_equal(p, q) for p, q in zip(a.rgb, b.rgb))

    @pytest.mark.parametrize("field", ["base_motion", "enh_motion"])
    def test_junk_after_motion_substream_refused(self, field):
        stream, _ = encode_sequence(textured_scene(4, 64, 64, seed=1),
                                    CodecConfig(quality=1, gop=4))
        setattr(stream.frames[1], field, getattr(stream.frames[1], field) + b"junk")
        dec, report = decode_sequence(stream)
        assert len(dec) == 1
        assert report.error == "frame 1: payload length differs from what its symbols need"

    @pytest.mark.parametrize("enhancement, t, field", [
        (True, 0, "base_motion"),    # intra frames code no flow
        (True, 2, "base_motion"),
        (True, 0, "enh_motion"),     # nor does a GOP's first enhancement frame
        (True, 2, "enh_motion"),
        (False, 1, "enh_motion"),    # a base-only stream has no enhancement
    ])
    def test_bytes_in_unread_substream_refused(self, enhancement, t, field):
        stream, _ = encode_sequence(textured_scene(3, 32, 32, seed=1),
                                    CodecConfig(quality=1, gop=2, enhancement=enhancement))
        assert getattr(stream.frames[t], field) == b""
        setattr(stream.frames[t], field, b"junk")
        dec, report = decode_sequence(ScalableBitstream.deserialize(stream.serialize()))
        assert len(dec) == t
        assert report.error == f"frame {t}: {field} sub-stream is never read"
        dec, report = decode_sequence(stream, "base")
        assert (report.error is None) == (field == "enh_motion")

    def test_flow_residual_beyond_coder_support(self):
        # Shifts of 0, +30 and -30 px: a motion search wide enough to find
        # them would code a base flow of about -60 against a prediction of
        # about +30, past the flow coder's support.  The encoder's search
        # range keeps every residual inside it.
        world = np.random.default_rng(3).uniform(0, 255, (3, 64, 124))
        clip = [Frame(world[:, :, x : x + 64]) for x in (30, 60, 0)]
        stream, _ = encode_sequence(clip, CodecConfig(quality=2, enhancement=False))
        dec, report = decode_sequence(
            ScalableBitstream.deserialize(stream.serialize()))
        assert report.error is None and len(dec) == 3

    def test_base_only_encode(self, square_clip):
        stream, report = encode_sequence(
            square_clip, CodecConfig(quality=2, gop=8, enhancement=False))
        assert all(r.enh_context == b"" for r in stream.frames)
        dec, drep = decode_sequence(stream)
        assert len(dec) == len(square_clip)
        assert drep.error is None


# ---------------------------------------------------------------------------
# Hostile streams
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_stream():
    stream, _ = encode_sequence(translating_square(3, 32, seed=0),
                                CodecConfig(quality=1, gop=2))
    return stream.serialize()


def test_oversized_header_width_fails_fast():
    # A header that declares 64032 columns where 32 were coded: the first
    # plane's payload runs out long before its ~2M declared symbols do, and
    # the range decoder stops at the first read past it.
    stream, _ = encode_sequence(translating_square(6, 32, seed=0), CodecConfig())
    raw = bytearray(stream.serialize())
    raw[5:7] = (64032).to_bytes(2, "little")
    dec, report = decode_sequence(ScalableBitstream.deserialize(bytes(raw)))
    assert dec == []
    assert report.error == "frame 0: stream exhausted: decoder read past the payload"


_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(0, 7)),
    st.tuples(st.just("header"), st.integers(0, 17), st.integers(0, 255)),
)


def _mutate(raw: bytes, mutations) -> bytes:
    out = bytearray(raw)
    for kind, *arg in mutations:
        if kind == "truncate":
            del out[int(arg[0] * len(out)):]
        elif kind == "flip" and out:
            out[min(int(arg[0] * len(out)), len(out) - 1)] ^= 1 << arg[1]
        elif kind == "header" and arg[0] < len(out):
            out[arg[0]] = arg[1]
    return bytes(out)


@settings(max_examples=200, deadline=None)
@given(mutations=st.lists(_MUTATION, min_size=1, max_size=3),
       via_cli=st.integers(0, 19))
def test_mutated_stream_fails_cleanly(small_stream, mutations, via_cli):
    # Every mutation either fails to parse with ContainerError or decodes to
    # frames plus, at worst, ``report.error``; nothing else escapes.
    raw = _mutate(small_stream, mutations)
    try:
        stream = ScalableBitstream.deserialize(raw)
    except ContainerError:
        stream = None
    if stream is not None:
        for layers in ("base", "base+enh"):
            dec, report = decode_sequence(stream, layers)
            assert len(dec) == report.frame_count <= len(stream.frames)
    if via_cli == 0:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "in.svhm"
            src.write_bytes(raw)
            code = cli_main(["decode", "--in", str(src), "--out", str(Path(tmp) / "out.y4m")])
        assert code in (EXIT_OK, EXIT_USAGE)


# ---------------------------------------------------------------------------
# Synthetic clips
# ---------------------------------------------------------------------------

class TestSynthetic:
    @pytest.mark.parametrize("size", [3, 12, 16])
    def test_square_needs_room_to_move(self, size):
        with pytest.raises(ValueError, match="16-pixel square"):
            translating_square(3, size)

    @pytest.mark.parametrize("size", [17, 32])
    def test_square_whole_in_every_frame(self, size):
        for f in translating_square(12, size):
            assert np.count_nonzero(f.rgb[0] == 220.0) == 16 * 16


# ---------------------------------------------------------------------------
# Y4M I/O
# ---------------------------------------------------------------------------

class TestY4M:
    def test_roundtrip(self, tmp_path):
        clip = textured_scene(frames=3, height=48, width=64, seed=1)
        path = tmp_path / "clip.y4m"
        write_y4m(path, clip)
        back = read_y4m(path)
        assert len(back) == 3
        assert back[0].height == 48 and back[0].width == 64
        # 4:2:0 chroma is lossy; luma must survive to within rounding
        for a, b in zip(clip, back):
            assert np.max(np.abs(a.luma() - b.luma())) < 2.0

    def test_rejects_odd_dimensions(self, tmp_path):
        clip = [Frame(np.stack([np.zeros((31, 64)), np.zeros((31, 64)), np.zeros((31, 64))]))]
        with pytest.raises(Y4MError):
            write_y4m(tmp_path / "odd.y4m", clip)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.y4m"
        path.write_bytes(b"not a y4m file\n")
        with pytest.raises(Y4MError):
            read_y4m(path)

    def test_rejects_truncated_frame(self, tmp_path):
        clip = textured_scene(frames=2, height=48, width=64, seed=2)
        path = tmp_path / "trunc.y4m"
        write_y4m(path, clip)
        data = path.read_bytes()
        path.write_bytes(data[:-100])
        with pytest.raises(Y4MError):
            read_y4m(path)

    def test_raw_yuv_reads_like_y4m(self, tmp_path):
        # The same planar bytes as raw YUV420 and inside a Y4M file.
        frames = [np.random.default_rng(t).integers(0, 256, 48 * 64 * 3 // 2, dtype=np.uint8)
                  .tobytes() for t in range(3)]
        raw, y4m = tmp_path / "clip.yuv", tmp_path / "clip.y4m"
        raw.write_bytes(b"".join(frames))
        y4m.write_bytes(b"YUV4MPEG2 W64 H48 F30:1 C420jpeg\n"
                        + b"".join(b"FRAME\n" + f for f in frames))
        from_raw = read_yuv420(raw, 64, 48)
        from_y4m = read_y4m(y4m)
        assert len(from_raw) == len(from_y4m) == 3
        for a, b in zip(from_raw, from_y4m):
            assert a.allclose(b)
        raw.write_bytes(b"".join(frames)[:-1])
        with pytest.raises(Y4MError, match="truncated frame 2"):
            read_yuv420(raw, 64, 48)

    @pytest.mark.parametrize("header, message", [
        (b"YUV4MPEG2 W64 H48", "truncated Y4M header"),
        (b"YUV4MPEG2 H48\n", "missing or malformed W/H"),
        (b"YUV4MPEG2 W6.4 H48\n", "missing or malformed W/H"),
        (b"YUV4MPEG2 W64 H48 C444\n", "unsupported colorspace C444"),
        (b"YUV4MPEG2 W65 H48\n", "even dimensions"),
        (b"YUV4MPEG2 W0 H48\n", "each side must be in 1..65535"),
        (b"YUV4MPEG2 W4096 H2162\n", "pixel cap"),
    ])
    def test_bad_header_refused(self, tmp_path, header, message):
        path = tmp_path / "bad.y4m"
        path.write_bytes(header)
        with pytest.raises(Y4MError, match=message):
            read_y4m(path)

    @pytest.mark.parametrize("width, height", [(0, 0), (-2, -2), (63, 48), (65536, 2)])
    def test_raw_geometry_refused(self, tmp_path, width, height):
        path = tmp_path / "clip.yuv"
        path.write_bytes(bytes(64 * 48 * 3 // 2))
        with pytest.raises(Y4MError):
            read_yuv420(path, width, height)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_intra_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(8, 41))
    w = int(rng.integers(8, 41))
    x = random_frame(rng, h, w)
    q = int(rng.integers(0, 4))
    payload, recon = coding.code_intra_frame(x, q)
    dec = coding.decode_intra_frame(payload, q, h, w)
    assert dec.allclose(recon)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flow_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    flow = FlowField(rng.integers(-8, 9, shape), rng.integers(-8, 9, shape))
    vbar = FlowField(rng.integers(-8, 9, shape), rng.integers(-8, 9, shape))
    out = coding.decode_flow(coding.code_flow(flow, vbar), vbar)
    assert np.array_equal(out.dx, flow.dx) and np.array_equal(out.dy, flow.dy)
