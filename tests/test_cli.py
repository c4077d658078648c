"""End-to-end tests for the svhm command-line interface.

All commands run in-process through main(argv) so exit codes and the
no-partial-output guarantee can be checked directly.
"""

import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svhm import rdtheory
from svhm.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from svhm.codec import CodecConfig, ContainerError, ScalableBitstream, encode_sequence
from svhm.codec.synthetic import textured_scene, translating_square
from svhm.codec.y4m import read_y4m, write_y4m
from svhm.evalkit import RDCurveTable, write_rd_csv


@pytest.fixture(scope="module")
def clip_y4m(tmp_path_factory):
    path = tmp_path_factory.mktemp("clips") / "clip.y4m"
    write_y4m(path, translating_square(frames=8, size=64, seed=0))
    return str(path)


@pytest.fixture(scope="module")
def encoded_bin(clip_y4m, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("enc") / "clip.svhm")
    code = main(["encode", "--in", clip_y4m, "--out", out, "--q", "2", "--gop", "8"])
    assert code == EXIT_OK
    return out


class TestEncodeDecode:
    def test_encode_writes_container(self, encoded_bin):
        raw = open(encoded_bin, "rb").read()
        stream = ScalableBitstream.deserialize(raw)
        assert len(stream.frames) == 8
        assert (stream.width, stream.height) == (64, 64)

    def test_encode_report(self, clip_y4m, tmp_path):
        out = str(tmp_path / "c.svhm")
        rep = str(tmp_path / "rate.json")
        assert main(["encode", "--in", clip_y4m, "--out", out,
                     "--q", "1", "--gop", "8", "--report", rep]) == EXIT_OK
        data = json.loads(open(rep).read())
        assert data["frame_count"] == 8
        assert data["total_bits"] >= data["base_bits"] > 0

    def test_decode_roundtrip(self, encoded_bin, tmp_path):
        out = str(tmp_path / "dec.y4m")
        assert main(["decode", "--in", encoded_bin, "--out", out]) == EXIT_OK
        frames = read_y4m(out)
        assert len(frames) == 8

    def test_decode_base_layer(self, encoded_bin, tmp_path):
        out = str(tmp_path / "base.y4m")
        assert main(["decode", "--in", encoded_bin, "--out", out,
                     "--layers", "base"]) == EXIT_OK

    def test_outputs_get_default_file_mode(self, encoded_bin, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        out = str(tmp_path / "rt.y4m")
        assert main(["decode", "--in", encoded_bin, "--out", out]) == EXIT_OK
        for path in (encoded_bin, out):
            assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_missing_input_no_partial_output(self, tmp_path):
        out = str(tmp_path / "never.svhm")
        assert main(["encode", "--in", str(tmp_path / "nope.y4m"),
                     "--out", out]) == EXIT_USAGE
        assert not os.path.exists(out)

    def test_invalid_quality(self, clip_y4m, tmp_path):
        assert main(["encode", "--in", clip_y4m,
                     "--out", str(tmp_path / "x.svhm"), "--q", "7"]) == EXIT_USAGE

    def test_decode_garbage_container(self, tmp_path):
        bad = tmp_path / "bad.svhm"
        bad.write_bytes(b"definitely not a container")
        out = str(tmp_path / "out.y4m")
        assert main(["decode", "--in", str(bad), "--out", out]) == EXIT_USAGE
        assert not os.path.exists(out)

    def test_zero_frame_stream_refused(self, tmp_path, capsys):
        # The parser accepts a header that declares no frames; decode says so.
        src = tmp_path / "empty.svhm"
        src.write_bytes(ScalableBitstream(64, 64, 8, 2).serialize())
        out = tmp_path / "out.y4m"
        assert main(["decode", "--in", str(src), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: stream holds no frames\n"
        assert not out.exists()

    def test_corrupt_frame_partial_decode(self, encoded_bin, tmp_path, capsys):
        stream = ScalableBitstream.deserialize(open(encoded_bin, "rb").read())
        sig = bytearray(stream.frames[4].base_signal)
        sig[len(sig) // 2] ^= 0xFF
        stream.frames[4].base_signal = bytes(sig)
        damaged = tmp_path / "damaged.svhm"
        damaged.write_bytes(stream.serialize())
        out = str(tmp_path / "partial.y4m")
        assert main(["decode", "--in", str(damaged), "--out", out]) == EXIT_USAGE
        frames = read_y4m(out)
        assert len(frames) == 4
        assert "partial decode" in capsys.readouterr().err

    @pytest.mark.parametrize("offset, value, field", [
        (14, 9, "quality"), (15, 7, "block"), (16, 0, "search"),
        (15, 8, "block"), (16, 4, "search"), (17, 0, "fusion"),
    ])
    def test_out_of_range_header_refused(self, encoded_bin, tmp_path, capsys,
                                         offset, value, field):
        raw = bytearray(open(encoded_bin, "rb").read())
        raw[offset] = value
        bad = tmp_path / "bad.svhm"
        bad.write_bytes(bytes(raw))
        out = str(tmp_path / "out.y4m")
        assert main(["decode", "--in", str(bad), "--out", out]) == EXIT_USAGE
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err and "partial decode" not in err

    def test_odd_sized_stream_refused_without_partial_output(self, tmp_path, capsys):
        # A valid 33x33 stream decodes, but 4:2:0 Y4M cannot hold it.
        stream, _ = encode_sequence(translating_square(2, 33),
                                    CodecConfig(quality=1, gop=2))
        src = tmp_path / "odd.svhm"
        src.write_bytes(stream.serialize())
        out = tmp_path / "x.y4m"
        assert main(["decode", "--in", str(src), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "even dimensions" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["odd.svhm"]

    def test_version_1_stream_refused(self, encoded_bin, tmp_path, capsys):
        # Version 1 coded every coefficient of a kept block; its payloads do
        # not parse as version 2 coefficient payloads, so the parser refuses it.
        raw = bytearray(open(encoded_bin, "rb").read())
        assert raw[4] == 2
        raw[4] = 1
        with pytest.raises(ContainerError, match="version 1"):
            ScalableBitstream.deserialize(bytes(raw))
        src = tmp_path / "v1.svhm"
        src.write_bytes(bytes(raw))
        out = tmp_path / "x.y4m"
        assert main(["decode", "--in", str(src), "--out", str(out)]) == EXIT_USAGE
        assert "unsupported container version 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "decode"])
    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("report", ["missing/r.json", "is_a_dir"])
    def test_failed_report_leaves_no_output(self, clip_y4m, encoded_bin, tmp_path,
                                            capsys, command, existing, report):
        # --out and --report are renamed into place together, or neither is
        (tmp_path / "is_a_dir").mkdir()
        src = clip_y4m if command == "encode" else encoded_bin
        out = tmp_path / "out"
        if existing:
            out.write_bytes(b"old")
        assert main([command, "--in", src, "--out", str(out),
                     "--report", str(tmp_path / report)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(tmp_path / report)) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["is_a_dir"] + ["out"] * existing
        assert list((tmp_path / "is_a_dir").iterdir()) == []
        assert not existing or out.read_bytes() == b"old"

    def test_usage_error_exit_code(self):
        assert main(["encode"]) == EXIT_USAGE
        assert main(["no-such-command"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [
        ("--block", "8"), ("--search", "4"), ("--fusion-weight", "0.25"),
    ])
    def test_fixed_encoder_settings_are_not_options(self, clip_y4m, tmp_path, flag, value):
        out = tmp_path / "x.svhm"
        assert main(["encode", "--in", clip_y4m, "--out", str(out), flag, value]) == EXIT_USAGE
        assert not out.exists()


class TestMetrics:
    def test_self_comparison(self, clip_y4m, tmp_path, capsys):
        assert main(["metrics", "--ref", clip_y4m, "--in", clip_y4m]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["all_identical"]
        assert data["mean_psnr"] is None

    def test_decoded_vs_source(self, clip_y4m, encoded_bin, tmp_path):
        dec = str(tmp_path / "dec.y4m")
        main(["decode", "--in", encoded_bin, "--out", dec])
        rep = str(tmp_path / "metrics.json")
        assert main(["metrics", "--ref", clip_y4m, "--in", dec,
                     "--out", rep]) == EXIT_OK
        data = json.loads(open(rep).read())
        assert len(data["frames"]) == 8
        assert data["mean_psnr"] > 30.0

    def test_frame_count_mismatch(self, clip_y4m, tmp_path):
        short = tmp_path / "short.y4m"
        write_y4m(short, translating_square(frames=3, size=64, seed=0))
        assert main(["metrics", "--ref", clip_y4m,
                     "--in", str(short)]) == EXIT_USAGE

    @pytest.mark.parametrize("size, flags", [(32, []), (64, ["--msssim"])],
                             ids=["geometry_mismatch", "too_small_for_msssim"])
    def test_unmeasurable_pair_refused(self, clip_y4m, tmp_path, capsys, size, flags):
        other = tmp_path / "other.y4m"
        write_y4m(other, translating_square(frames=8, size=size, seed=0))
        out = tmp_path / "m.json"
        assert main(["metrics", "--ref", clip_y4m, "--in", str(other),
                     "--out", str(out)] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


# Header-driven failures that once escaped main as MemoryError, ValueError,
# ZeroDivisionError and a reshape ValueError.
_HOSTILE_INPUTS = {
    "huge.y4m": (b"YUV4MPEG2 W1000000 H1000000 F25:1 C420jpeg\nFRAME\n" + bytes(96), []),
    "non_integer_width.y4m": (b"YUV4MPEG2 Wabc H10 F25:1 C420jpeg\nFRAME\n" + bytes(96), []),
    "zero_size.yuv": (bytes(96), ["--width", "0", "--height", "0"]),
    "negative_size.yuv": (bytes(96), ["--width", "-2", "--height", "-2"]),
}


class TestHostileInput:
    @pytest.mark.parametrize("name", sorted(_HOSTILE_INPUTS))
    def test_refused_with_exit_2(self, tmp_path, capsys, name):
        data, extra = _HOSTILE_INPUTS[name]
        src = tmp_path / name
        src.write_bytes(data)
        out = tmp_path / "out.svhm"
        assert main(["encode", "--in", str(src), "--out", str(out)] + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [src.name]


@pytest.fixture(scope="module")
def small_y4m(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "clean.y4m"
    write_y4m(path, textured_scene(frames=2, height=16, width=16, seed=0))
    return str(path)


_TOKEN = st.one_of(
    st.sampled_from([b"W16", b"H16", b"W17", b"H0", b"W-2", b"Wabc", b"H", b"W4096",
                     b"H2162", b"W2", b"H2", b"C444", b"C420mpeg2", b"F30:1", b"X"]),
    st.builds(lambda k, v: k + str(v).encode(), st.sampled_from([b"W", b"H"]),
              st.integers(-3, 70_000)),
    st.binary(max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["set", "drop", "add"]),
                                st.integers(0, 7), _TOKEN), max_size=3),
       pokes=st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 255)), max_size=3),
       cut=st.none() | st.integers(0, 10_000), msssim=st.booleans())
def test_mutated_y4m_input_fails_cleanly(small_y4m, edits, pokes, cut, msssim):
    # Whatever the header tokens and bytes say, encode and metrics either
    # succeed or end in exit 2 without output; nothing escapes main.
    header, body = Path(small_y4m).read_bytes().split(b"\n", 1)
    tokens = header.split()
    for op, i, tok in edits:
        i %= len(tokens) + 1
        if op == "add":
            tokens.insert(i, tok)
        elif i < len(tokens):
            if op == "set":
                tokens[i] = tok
            else:
                del tokens[i]
    data = bytearray(b" ".join(tokens) + b"\n" + body)
    for pos, value in pokes:
        data[pos % len(data)] = value
    if cut is not None:
        del data[cut % (len(data) + 1):]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.y4m", Path(tmp) / "out"
        src.write_bytes(data)
        for argv in (["encode", "--in", str(src), "--gop", "2"],
                     ["metrics", "--ref", small_y4m, "--in", str(src)] + ["--msssim"] * msssim):
            code = main(argv + ["--out", str(out)])
            assert code in (EXIT_OK, EXIT_USAGE)
            assert out.exists() == (code == EXIT_OK)
            out.unlink(missing_ok=True)


class TestBDRateCommand:
    def make_curves_csv(self, path):
        a = RDCurveTable("anchor", "PSNR",
                         [(0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)])
        b = RDCurveTable("test", "PSNR", [(r / 2, q) for r, q in a.points])
        write_rd_csv(path, [a, b])

    def test_bdrate(self, tmp_path, capsys):
        csv_path = str(tmp_path / "curves.csv")
        self.make_curves_csv(csv_path)
        assert main(["bdrate", "--curves", csv_path, "--anchor", "anchor",
                     "--test", "test"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["bd_rate_percent"] == pytest.approx(-50.0, abs=1e-6)

    def test_unknown_label(self, tmp_path):
        csv_path = str(tmp_path / "curves.csv")
        self.make_curves_csv(csv_path)
        assert main(["bdrate", "--curves", csv_path, "--anchor", "missing",
                     "--test", "test"]) == EXIT_USAGE


class TestBreakEvenCommand:
    def test_direct_factors(self, capsys):
        assert main(["breakeven", "--a", "0.832", "--b", "1.239"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["regime"] == "interior"
        assert data["phi"] == pytest.approx((1 - 0.832) / (1.239 - 0.832))

    def test_missing_arguments(self, capsys):
        assert main(["breakeven", "--a", "0.8"]) == EXIT_USAGE

    @pytest.mark.parametrize("a", ["nan", "inf"])
    def test_non_finite_factor_refused(self, capsys, a):
        assert main(["breakeven", "--a", a, "--b", "1.2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: bit factors must be positive and finite\n"

    def test_summary_table(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        rows = [
            ("clipA", 30, "vvenc", "mAP", -40.0),
            ("clipA", 30, "proposed-base", "mAP", -55.0),
            ("clipA", 30, "vvenc", "PSNR", 10.0),
            ("clipA", 30, "proposed-enh", "PSNR", 30.0),
            ("clipA", 30, "proposed-base+enh", "PSNR", 40.0),
        ]
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["dataset", "frames", "codec", "metric", "bd_rate"])
            wr.writerows(rows)
        assert main(["breakeven", "--summary", str(path), "--json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["machine_factor"] == pytest.approx(0.85)


_CURVES_CSV = "label,metric,bpp,quality\n" + "".join(
    f"{label},PSNR,{bpp * scale},{quality}\n"
    for label, scale in (("anchor", 1.0), ("test", 0.5))
    for bpp, quality in ((0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)))
_SUMMARY_CSV = """dataset,frames,codec,metric,bd_rate
clipA,30,vvenc,mAP,-40.0
clipA,30,proposed-base,mAP,-55.0
clipA,30,vvenc,PSNR,10.0
clipA,30,proposed-enh,PSNR,30.0
"""


@pytest.mark.parametrize("command,old,new", [
    ("bdrate", "bpp,quality", "bpp,q"),                       # missing column
    ("bdrate", "label,metric", "label,measure"),              # missing column
    ("bdrate", "anchor,PSNR,0.2,", "anchor,PSNR,abc,"),       # not a number
    ("bdrate", "anchor,PSNR,0.2,33.0", "anchor,PSNR,0.2,nan"),
    ("bdrate", "anchor,PSNR,0.4,36.0\nanchor,PSNR,0.8,39.0\n", ""),   # 2 points
    ("bdrate", "anchor,PSNR,0.8,39.0", "anchor,PSNR"),       # short row
    ("summary", "metric,bd_rate", "metric,bd"),               # missing column
    ("summary", "PSNR,30.0", "PSNR,nan"),
    ("summary", "clipA,30,vvenc,mAP", "clipA,x,vvenc,mAP"),
    ("summary", "clipA,30,vvenc,mAP", "clipA,0,vvenc,mAP"),
], ids=["bdrate-no-quality", "bdrate-no-metric", "bdrate-abc", "bdrate-nan",
        "bdrate-2-points", "bdrate-short-row", "summary-no-bd_rate", "summary-nan",
        "summary-frames-x", "summary-frames-0"])
def test_malformed_csv_is_a_usage_error(tmp_path, capsys, command, old, new):
    text = _CURVES_CSV if command == "bdrate" else _SUMMARY_CSV
    assert old in text
    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    path.write_text(text.replace(old, new))
    argv = (["bdrate", "--curves", str(path), "--anchor", "anchor", "--test", "test"]
            if command == "bdrate" else ["breakeven", "--summary", str(path)])
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


class TestRDLab:
    @pytest.mark.parametrize("slopes", ["0", "-1"])
    def test_no_slopes_is_a_usage_error(self, tmp_path, capsys, slopes):
        out = tmp_path / "lab.json"
        assert main(["rdlab", "--slopes", slopes, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --slopes")
        assert not out.exists()

    @pytest.mark.parametrize("joints", ["-1", "-5"])
    def test_negative_joints_is_a_usage_error(self, tmp_path, capsys, joints):
        out = tmp_path / "lab.json"
        assert main(["rdlab", "--joints", joints, "--slopes", "2",
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: --joints")
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [
        ("--seed", "-1"), ("--tolerance", "nan"), ("--tolerance", "inf"),
        ("--tolerance", "-1"),
    ])
    def test_meaningless_seed_or_tolerance_is_a_usage_error(self, tmp_path, capsys,
                                                            option, value):
        # nan and -1 would report false violations, inf would pass vacuously,
        # and numpy refuses a negative seed with a message naming no option
        out = tmp_path / "lab.json"
        assert main(["rdlab", "--joints", "1", "--slopes", "2", option, value,
                     "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"error: {option} ")
        assert not out.exists()

    def test_zero_joints_checks_nothing_and_says_so(self, tmp_path):
        out = tmp_path / "lab.json"
        assert main(["rdlab", "--joints", "0", "--slopes", "2",
                     "--out", str(out)]) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["joints"] == 0
        assert data["points"] == []

    def test_small_sweep_all_hold(self, tmp_path):
        out = str(tmp_path / "lab.json")
        assert main(["rdlab", "--joints", "3", "--slopes", "4",
                     "--seed", "1", "--out", out]) == EXIT_OK
        data = json.loads(open(out).read())
        assert data["all_hold"]
        assert data["violations"] == 0
        assert len(data["points"]) == 12
        assert all(p["margin"] >= -1e-6 for p in data["points"])
        assert [e["slope"] for e in data["per_slope"]] == pytest.approx(
            np.geomspace(0.01, 10.0, 4))
        assert all(e["worst_gap"] < 1e-9 for e in data["per_slope"])
        assert all(e["max_iterations"] >= 1 for e in data["per_slope"])

    def test_points_are_the_solve_pairs_in_sweep_order(self, tmp_path):
        out = tmp_path / "lab.json"
        assert main(["rdlab", "--joints", "3", "--slopes", "4", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        rng = np.random.default_rng(1)
        slopes = [float(s) for s in np.geomspace(0.01, 10.0, 4)]
        want = []
        for j in range(3):
            joint = rdtheory.random_joint(rng)
            dmat = rdtheory.DistortionMatrix.squared_error(rdtheory.residual_alphabet(joint))
            want += [{"joint": j, "slope": r.slope,
                      "rate_cond": r.r_c.rate, "dist_cond": r.r_c.distortion,
                      "rate_resid": r.r_r.rate, "dist_resid": r.r_r.distortion,
                      "margin": r.margin}
                     for r in rdtheory.verify_rd_inequality(joint, dmat, slopes,
                                                            ba_max_iters=400_000)]
        assert json.loads(out.read_text())["points"] == want

    def test_exit_codes_defined(self):
        assert (EXIT_OK, EXIT_VERIFY, EXIT_USAGE) == (0, 1, 2)


def _clip(d, name, size):
    write_y4m(d / name, translating_square(frames=2, size=size, seed=0))
    return str(d / name)


def _file(d, name, data):
    (d / name).write_bytes(data)
    return str(d / name)


def _odd_sized_stream(d):
    stream, _ = encode_sequence(translating_square(2, 33), CodecConfig(quality=1, gop=2))
    return _file(d, "odd.svhm", stream.serialize())


_DISJOINT_CURVES_CSV = "label,metric,bpp,quality\n" + "".join(
    f"{label},PSNR,{bpp},{quality + shift}\n"
    for label, shift in (("anchor", 0.0), ("test", 20.0))
    for bpp, quality in ((0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)))

# One row per kind of refused input, from each library layer that refuses one;
# main() alone turns all of them into exit 2.
_REFUSALS = {
    "y4m-header": lambda d: [
        "encode", "--in", _file(d, "h.y4m", _HOSTILE_INPUTS["non_integer_width.y4m"][0])],
    "odd-size-decode": lambda d: ["decode", "--in", _odd_sized_stream(d)],
    "codec-config": lambda d: ["encode", "--in", _clip(d, "c.y4m", 32), "--gop", "0"],
    "psnr-size-mismatch": lambda d: ["metrics", "--ref", _clip(d, "a.y4m", 32),
                                     "--in", _clip(d, "b.y4m", 64)],
    "bdrate-overlap": lambda d: [
        "bdrate", "--curves", _file(d, "c.csv", _DISJOINT_CURVES_CSV.encode()),
        "--anchor", "anchor", "--test", "test"],
    "breakeven-non-finite": lambda d: ["breakeven", "--a", "inf", "--b", "1.2"],
    "rdlab-seed": lambda d: ["rdlab", "--joints", "1", "--seed", "-1"],
    "rdlab-tolerance-nan": lambda d: ["rdlab", "--joints", "1", "--tolerance", "nan"],
    "rdlab-tolerance-inf": lambda d: ["rdlab", "--joints", "1", "--tolerance", "inf"],
    "rdlab-tolerance-negative": lambda d: ["rdlab", "--joints", "1", "--tolerance", "-1"],
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_every_refusal_is_one_error_line_and_exit_2(tmp_path, capsys, name):
    src = tmp_path / "src"
    src.mkdir()
    out = tmp_path / "out"
    assert main(_REFUSALS[name](src) + ["--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/dir/o.svhm", "is_a_dir"])
def test_failed_write_names_the_requested_path(clip_y4m, tmp_path, capsys, target):
    (tmp_path / "is_a_dir").mkdir()
    out = tmp_path / target
    assert main(["encode", "--in", clip_y4m, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(out)) in err and ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["is_a_dir"]
    assert list((tmp_path / "is_a_dir").iterdir()) == []



def _curves(d):
    anchor = RDCurveTable("anchor", "PSNR", [(0.1, 30.0), (0.2, 33.0), (0.4, 36.0), (0.8, 39.0)])
    test = RDCurveTable("test", "PSNR", [(r / 2, q) for r, q in anchor.points])
    write_rd_csv(d / "c.csv", [anchor, test])
    return str(d / "c.csv")


# Each command that writes a file, given "" as one of its output paths.
_EMPTY_PATHS = {
    "encode": lambda d, clip, stream: ["encode", "--in", clip, "--out", ""],
    "encode-report": lambda d, clip, stream: [
        "encode", "--in", clip, "--out", "o.svhm", "--report", ""],
    "decode": lambda d, clip, stream: ["decode", "--in", stream, "--out", ""],
    "decode-report": lambda d, clip, stream: [
        "decode", "--in", stream, "--out", "o.y4m", "--report", ""],
    "metrics": lambda d, clip, stream: ["metrics", "--ref", clip, "--in", clip, "--out", ""],
    "bdrate": lambda d, clip, stream: [
        "bdrate", "--curves", _curves(d), "--anchor", "anchor", "--test", "test", "--out", ""],
    "breakeven": lambda d, clip, stream: ["breakeven", "--a", "0.8", "--b", "1.2", "--out", ""],
    "rdlab": lambda d, clip, stream: ["rdlab", "--joints", "1", "--slopes", "2", "--out", ""],
}


@pytest.mark.parametrize("name", list(_EMPTY_PATHS))
def test_an_empty_output_path_is_refused(clip_y4m, encoded_bin, tmp_path, monkeypatch,
                                         capsys, name):
    # "" names no file: it is refused before any file is made, not skipped
    # and not taken for stdout
    inputs, work = tmp_path / "in", tmp_path / "work"
    inputs.mkdir()
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(_EMPTY_PATHS[name](inputs, clip_y4m, encoded_bin)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in", "work"]
    assert list(work.iterdir()) == []

# Runs the quality sweep script with svhm.codec.encode_sequence made to raise,
# so a refusal that comes only after an encode ends in a traceback.
_SWEEP_WITHOUT_ENCODES = (
    "import runpy, sys, svhm.codec\n"
    "def encode_sequence(*args, **kwargs):\n"
    "    raise AssertionError('encode_sequence ran')\n"
    "svhm.codec.encode_sequence = encode_sequence\n"
    "sys.argv = sys.argv[1:]\n"
    "runpy.run_path(sys.argv[0], run_name='__main__')\n")


@pytest.mark.parametrize("args, option", [
    (["--frames", "0", "--out", "q.csv"], "--frames"),
    (["--gop", "0", "--out", "q.csv"], "--gop"),
    (["--gop", "256", "--out", "q.csv"], "--gop"),
    (["--in", "missing.y4m", "--out", "q.csv"], "missing.y4m"),
    (["--seed", "-1", "--out", "q.csv"], "--seed must not be negative, got -1"),
    (["--out", "missing/q.csv"], "'missing/q.csv'"),
    (["--out", ""], "''"),
])
def test_quality_sweep_refusal_is_one_error_line_and_exit_2(tmp_path, args, option):
    # the script runs under svhm.cli's refusal boundary, and refuses a bad
    # option or --out directory before its first encode
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
    script = str(root / "scripts" / "codec_quality_sweep.py")
    run = subprocess.run([sys.executable, "-c", _SWEEP_WITHOUT_ENCODES, script, *args],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_USAGE
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert option in run.stderr and run.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_a_bug_is_not_a_refused_input(monkeypatch):
    # main() turns only ValueError and OSError into exit 2; a TypeError
    # raised inside a command is a bug and must end in a traceback.
    def broken(a, b):
        raise TypeError("a bug")
    monkeypatch.setattr("svhm.cli.evalkit.break_even", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["breakeven", "--a", "0.8", "--b", "1.2"])


def test_import_loads_no_scipy():
    # svhm.cli imports every svhm module; scipy is only a test-time oracle
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, svhm.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
