import concurrent.futures.process
import json
import math
import multiprocessing
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from trunctail import (AdaptiveParams, Burr, TruncationScheme, design_rates, replication_seed,
                       report_for_parameters)
from trunctail import _reprtext, _samplefile, cli, montecarlo

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "trunctail", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x\n8\n4\n2\n1\n")
    return path


class TestEstimateCommand:
    def test_forced_k_hand_value(self, data_file):
        proc = run_cli("estimate", "--input", str(data_file), "--k", "2")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["h"] == pytest.approx(math.log(2) / 2, abs=1e-6)
        assert doc["k_hat"] == 2
        assert set(doc) == {
            "n", "k_hat", "h", "alpha_hat", "se", "ci_lo", "ci_hi",
            "level", "v_count", "c_statistic",
        }

    def test_missing_file(self, tmp_path):
        proc = run_cli("estimate", "--input", str(tmp_path / "nope.csv"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_read_error_comes_before_a_bad_beta(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert cli.main(["estimate", "--input", str(path), "--beta", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_bad_beta_names_the_parameter(self, data_file):
        proc = run_cli("estimate", "--input", str(data_file), "--beta", "1.5")
        assert proc.returncode == 2
        assert "beta" in proc.stderr

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n3.5\nhello\n1\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1\n-2\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("8\n\n4\n\n2\n1\n")
        proc = run_cli("estimate", "--input", str(path), "--k", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n"] == 4

    def test_level_rounding_to_one_names_level(self, data_file):
        # 0.5 * (1 + level) rounds to 1 for the largest double below 1
        proc = run_cli("estimate", "--input", str(data_file), "--k", "2", "--level", "0.9999999999999999")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "level must be at most 1 - 2**-52, got 0.9999999999999999" in proc.stderr
        assert "p must be" not in proc.stderr

    def test_thin_tail_exits_three(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("\n".join(["1000000"] + ["1"] * 9) + "\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 3
        assert "k = 1" in proc.stderr

    def test_overflowing_ratio_exits_three(self, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("1e6\n5e-324\n")
        proc = run_cli("estimate", "--input", str(path), "--k", "2")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "X_(1)/X_(2) = 1000000.0/5e-324 overflows" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_all_equal_exits_three(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(["5"] * 30) + "\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 3


# Generated sample files: clean lines with up to two odd pieces, so that
# many files sit just either side of what one numpy conversion takes. The
# odd pieces are tokens, whitespace and line breaks that the line loop
# rejects or reads differently from numpy, including the breaks that
# str.splitlines makes and bytes.splitlines does not.
_CLEAN = st.floats(min_value=0.0, allow_infinity=False).map(repr)
_ODD_TOKEN = st.one_of(
    st.floats().map(repr),
    st.sampled_from([
        "", "-0.0", "-0", "1_0", "+7", ".5", "1e400", "1e-400", "nan", "-nan", "inf", "-inf",
        "Infinity", "-1.5", "-0.5", "-5e-324", "abc", "1 2", "0x10", "\u0663", "\uff11",
        "1\x00", "\x00", "x", "X", "\ufeff1",
    ]),
)
_ODD_SPACE = st.sampled_from(["", " ", "\t", "\x0c", "\x0b", "\x1f", "\xa0"])
_ODD_BREAK = st.sampled_from(["", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r\r\n"])


@st.composite
def _sample_file(draw) -> bytes:
    header = draw(st.sampled_from(["", "x", "X", " x ", "x\t"]))
    lines = ([header] if header else []) + draw(st.lists(_CLEAN, max_size=5))
    breaks = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    for _ in range(draw(st.integers(0, 2)) if lines else 0):
        i = draw(st.integers(0, len(lines) - 1))
        odd = draw(st.sampled_from(["token", "space", "break"]))
        if odd == "token":
            lines[i] = draw(_ODD_TOKEN)
        elif odd == "space":
            lines[i] = draw(_ODD_SPACE) + lines[i] + draw(_ODD_SPACE)
        else:
            breaks[i] = draw(_ODD_BREAK)
    data = "".join(line + br for line, br in zip(lines, breaks)).encode()
    if draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return data + b"\xff" if draw(st.integers(0, 19)) == 0 else data


@st.composite
def _long_sample_file(draw) -> bytes:
    """Up to a hundred lines from _sample_file's pieces: mostly clean values
    ending in a line feed, with blank lines, other line breaks, odd
    whitespace and a rare odd token here and there, so that most files convert
    cleanly and a cut can land next to each of them."""
    header = draw(st.sampled_from(["", "x", " X\t"]))
    line = st.one_of(*[_CLEAN] * 12, st.just(""), st.tuples(_ODD_SPACE, _CLEAN, _ODD_SPACE).map("".join),
                     _ODD_TOKEN)
    lines = ([header] if header else []) + draw(st.lists(line, min_size=1, max_size=100))
    breaks = draw(st.lists(st.sampled_from(["\n"] * 8 + ["\r\n", "\r"]),
                           min_size=len(lines), max_size=len(lines)))
    data = "".join(line + br for line, br in zip(lines, breaks)).encode()
    return data.rstrip(b"\r\n") if draw(st.booleans()) else data


def _read_file(path: str):
    return _samplefile._read_sample_file(path, _samplefile._cut_lines(Path(path).read_bytes()))


def _read_outcome(read, path):
    """The values' bytes, or the message that main prints after 'error: '
    before exiting 2."""
    try:
        return np.asarray(read(str(path)), dtype=float).tobytes()
    except ValueError as exc:
        return str(exc)


class TestSampleFileReader:
    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_sample_file())
    def test_one_conversion_equals_line_loop(self, tmp_path, data):
        path = tmp_path / "sample.csv"
        path.write_bytes(data)
        assert _read_outcome(_read_file, path) == _read_outcome(_samplefile._read_sample_lines, path)

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_long_sample_file(), piece=st.integers(1, 48))
    def test_cut_pieces_read_what_the_line_loop_reads(self, tmp_path, data, piece):
        path = tmp_path / "sample.csv"
        path.write_bytes(data)
        with mock.patch.object(_samplefile, "_READ_PIECE", piece), mock.patch.object(_samplefile, "_usable_cores", lambda: 1):
            pieces = _samplefile._cut_lines(data)
            assert data.endswith(b"".join(pieces))
            assert all(p.endswith(b"\n") for p in pieces[:-1])
            assert _read_outcome(_read_file, path) == _read_outcome(_samplefile._read_sample_lines, path)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=_sample_file(), size=st.sampled_from(["_SCAN_PIECE", "_READ_PIECE"]), pieces=st.integers(0, 3))
    @example(data=b"x\n1.5\n2.5", size="_SCAN_PIECE", pieces=2)
    @example(data=b"1.5\r2.5\r", size="_READ_PIECE", pieces=2)
    @example(data=b"1.5\n", size="_READ_PIECE", pieces=0)
    def test_line_ranges_tile_the_lines_after_the_header(self, data, size, pieces):
        # repeated to span about `pieces` pieces of the real size
        size = getattr(_samplefile, size)
        data *= 1 + pieces * size // max(len(data), 1)
        ranges = list(_samplefile._line_ranges(data, size))
        cuts = [_samplefile._header_end(data)] + [e for _, e in ranges]
        assert ranges == list(zip(cuts, cuts[1:])) and cuts[-1] == len(data)
        assert all(s < e for s, e in ranges)
        for s, e in ranges[:-1]:
            assert e - s > size and data[e - 1:e] == b"\n" and b"\n" not in data[s + size:e - 1]

    def test_pieces_converted_on_the_pool_keep_their_order(self, tmp_path, monkeypatch):
        lines = [repr(v) for v in np.random.default_rng(3).pareto(1.0, 3000).tolist()]
        text = "x\r\n" + "\n".join(lines[:1000]) + "\r" + "\r\n".join(lines[1000:2000]) + "\n"
        path = tmp_path / "sample.csv"
        path.write_bytes((text + "\n".join(lines[2000:])).encode())
        monkeypatch.setattr(_samplefile, "_READ_PIECE", 4096)
        monkeypatch.setattr(_samplefile, "_usable_cores", lambda: 2)
        monkeypatch.setattr(_samplefile, "_read_sample_lines", None)
        assert len(_samplefile._cut_lines(path.read_bytes())) > 10
        values = _read_file(str(path))
        assert multiprocessing.active_children() == []
        assert values.tobytes() == np.array([float(s) for s in lines]).tobytes()

    def test_clean_file_skips_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "sample.csv"
        path.write_bytes(b" X\t\r\n8\r\n4.5 \n1e-3\n-0.0\n2_0\r0")
        monkeypatch.setattr(_samplefile, "_read_sample_lines", None)
        values = _read_file(str(path))
        assert values.dtype == np.float64
        assert values.tobytes() == np.array([8.0, 4.5, 1e-3, -0.0, 20.0, 0.0]).tobytes()


# Lines for the top reader: repr of values from 1e-6 to 1e5, plain in every
# class from 0 to 5 and in exponent form below 1e-4, or of a heavy tail above
# 1, and lines in every other form the line loop reads or refuses, some of
# them one check away from plain
_PLAIN = st.one_of(st.floats(-6.0, 5.0).map(lambda e: repr(10.0**e)),
                   st.floats(1e-3, 1.0).map(lambda u: repr(u**-2.0)))
_SPECIAL = st.sampled_from([
    "", " ", "7", "0", "0.0", "-0.0", ".5", "5.", "007.5", "00.5", "0.", "1e-05", "1e+16", "1_0.5",
    " 3.5", "3.5 ", "\t3.5", "\x0b3.5", "3.5\x0c", "3.5\r4.5", "3.5\x1c", "nan", "inf", "-1.5", "abc", "x",
    "\xa03.5", "\u0663", "3.5\x00", "\x00", "1.2.3", ".", "99.99999999999999999", "1" * 400 + ".5",
    "1e5", "-5", "+5", "1e.5", "5.5.", "2.5e2",
])


@st.composite
def _top_file(draw) -> bytes:
    """A sample file of plain lines with, at times, special lines, other
    headers and line breaks, no final line feed, or a byte UTF-8 refuses."""
    header = draw(st.sampled_from(["", "x\n", "X\n", " x \n", "x\r\n", "x\r", "\rx\n"]))
    lines = draw(st.lists(st.one_of(*[_PLAIN] * 8, _SPECIAL), min_size=1, max_size=60))
    breaks = draw(st.lists(st.sampled_from(["\n"] * 12 + ["\r\n", "\r"]), min_size=len(lines),
                           max_size=len(lines)))
    text = header + "".join(line + br for line, br in zip(lines, breaks))
    if draw(st.integers(0, 9)) == 0:
        text = text.rstrip("\r\n")
    return text.encode() + (b"\xff\n" if draw(st.integers(0, 19)) == 0 else b"")


@st.composite
def _estimate_flags(draw) -> list[str]:
    flags = []
    for name, values in (("beta", ["0.3", "0.9"]), ("gamma", ["0.05", "0.19", "0.9"]),
                         ("level", ["0.5", "0.999999", "1.5"])):
        if draw(st.booleans()):
            flags.append(f"--{name}={draw(st.sampled_from(values))}")
    if draw(st.integers(0, 2)) == 0:
        flags.append(f"--k={draw(st.integers(1, 62))}")
    return flags


def _estimate_outcomes(path, flags, capsys) -> list:
    """estimate's exit code, stdout and stderr on the file at path from the
    full path alone, from the top reader on every file it takes, and at the
    top reader's own share."""
    outcomes = []
    for share in (0, 1, _samplefile._TOP_SHARE):
        with mock.patch.object(_samplefile, "_TOP_SHARE", share):
            code = cli.main(["estimate", "--input", str(path), *flags])
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


# Plain values of classes 0 to 4, largest last, and files of them with what
# the top reader must read as the line loop does
_CLASSES = [repr(v) for v in (10.0 ** np.linspace(-3.9, 3.9, 40)).tolist()]
_FIXED_FILES = [
    "\n".join(_CLASSES) + "\n",
    "x\n" + "\n".join(["007.5", "0.5", "00.25", ".5", "5.", "12"] + _CLASSES) + "\n",
    "X\n" + "\n".join(["1e-05", "1e+16", "1_0.5", "2e2"] + _CLASSES) + "\n",
    " x \r\n" + "\r\n".join(_CLASSES) + "\r\n",
    "x\n" + "\n".join(_CLASSES[:20]) + "\r" + "\n".join(_CLASSES[20:]) + "\n",
    "x\n" + "\n".join(_CLASSES[:20] + [" 3.5\t", "3.5\r", "\x0b3.5", "3.5\x0c"] + _CLASSES[20:]) + "\n",
    "x\n" + "\n".join(_CLASSES[:20] + [""] + _CLASSES[20:]) + "\n",
    *["x\n" + "\n".join(_CLASSES[:20] + [bad] + _CLASSES[20:]) + "\n"
      for bad in ["-1.5", "1.2.3", ".", "3.5\r4.5", "1e5", "-5", "1e.5", "0x5", "1 5"]],
    "x\n" + "\n".join(["500.5", "400.5", *["50.5"] * 20, "1e-05", "20.5"] + _CLASSES[:20]) + "\n",
    "x\n" + "\n".join(_CLASSES) + "\n\n",
    "x\n" + "\n".join(_CLASSES),
    "x\n" + "\n".join(_CLASSES + ["\xa03.5"]) + "\n",
    "x\n" + "\n".join(_CLASSES + ["3.5\x00"]) + "\n",
    "x\n" + "\n".join(_CLASSES + ["nan"]) + "\n",
    "x\n" + "\n".join(_CLASSES + ["-0.0", "-1.5"]) + "\n",
    # 99.99999999999999999 rounds to 100.0, the floor below class 3
    "x\n" + "\n".join(["500.5", "99.99999999999999999", "100.0", "99.5"] + _CLASSES[:30]) + "\n",
    "x\n" + "\n".join(["1" * 400 + ".5"] + _CLASSES) + "\n",
    "x\n" + "\n".join(["1" * 308 + ".5"] + _CLASSES) + "\n",
    "x\n" + "\n".join(["5.0"] * 30) + "\n",
    "x\n" + "\n".join(["0.0"] * 30) + "\n",
    "x\n" + "\n".join(["0.0"] * 29 + ["5.0"]) + "\n",
]


class TestSampleTops:
    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_top_file(), flags=_estimate_flags())
    def test_top_reader_matches_the_full_path(self, tmp_path, capsys, data, flags):
        path = tmp_path / "sample.csv"
        path.write_bytes(data)
        full, top, shared = _estimate_outcomes(path, flags, capsys)
        assert top == full
        assert shared == full

    @pytest.mark.parametrize("text", _FIXED_FILES, ids=[f"file{i}" for i in range(len(_FIXED_FILES))])
    @pytest.mark.parametrize("flags", [[], ["--gamma=0.19"], ["--level=0.999999"], ["--k=2"], ["--k=30"],
                                       ["--gamma=0.05", "--k=2"]])
    def test_fixed_files_match_the_full_path(self, tmp_path, capsys, text, flags):
        path = tmp_path / "sample.csv"
        path.write_bytes(text.encode())
        full, top, shared = _estimate_outcomes(path, flags, capsys)
        assert top == full
        assert shared == full

    def test_every_forced_k_matches_the_full_path(self, tmp_path, capsys):
        path = tmp_path / "sample.csv"
        path.write_text("x\n" + "\n".join(_CLASSES) + "\n")
        for k in range(1, len(_CLASSES) + 2):
            full, top, shared = _estimate_outcomes(path, [f"--k={k}"], capsys)
            assert top == full
            assert shared == full

    def test_answers_from_the_classes_it_needs(self, tmp_path, monkeypatch, capsys):
        # V = 2 above 250.25 and k = 18 at the default beta: the two values of
        # class 3 give V, and the forty of class 2 give the top 18
        lines = ["500.5", "260.25", *[f"{10 + i}.5" for i in range(40)],
                 *[f"{1 + i % 9}.25" for i in range(500)], *["0.5"] * 3000, "1e-05"]
        path = tmp_path / "sample.csv"
        path.write_text("x\n" + "\n".join(lines) + "\n")
        samples, original = [], _samplefile._adopt

        def adopt(values, n, floor):
            samples.append((sorted(values.tolist()), n, floor))
            return original(values, n, floor)

        full = _estimate_outcomes(path, [], capsys)[0]
        monkeypatch.setattr(_samplefile, "_read_sample_file", None)
        with mock.patch.object(_samplefile, "_adopt", adopt):
            assert (cli.main(["estimate", "--input", str(path)]), *capsys.readouterr()) == full
        top = [1e-05, 260.25, 500.5]
        assert samples == [(top, len(lines), 100.0),
                           (sorted(top + [10.5 + i for i in range(40)]), len(lines), 10.0)]
        assert json.loads(full[1])["k_hat"] == 18

    @pytest.mark.parametrize("ending, flags", [("\r\n", []), ("\n", ["--k=2000"])])
    def test_other_formats_leave_after_the_first_piece(self, tmp_path, monkeypatch, capsys, ending, flags):
        # a file of CRLF lines, or a forced k past the top reader's share
        lines = [repr(v) for v in np.random.default_rng(5).pareto(2.0, 5000).tolist()]
        path = tmp_path / "sample.csv"
        path.write_bytes(("x" + ending + ending.join(lines) + ending).encode())
        monkeypatch.setattr(_samplefile, "_SCAN_PIECE", 4096)
        pieces, original = [], _samplefile._scan_piece

        def scan_piece(*args):
            pieces.append(args[1:])
            return original(*args)

        full = _estimate_outcomes(path, flags, capsys)[0]
        with mock.patch.object(_samplefile, "_scan_piece", scan_piece):
            assert (cli.main(["estimate", "--input", str(path), *flags]), *capsys.readouterr()) == full
        assert len(pieces) == 1
        assert full[0] == 0


class TestDiagnoseCommand:
    def test_window(self):
        proc = run_cli("diagnose", "--alpha", "1", "--rho", "-1", "--beta", "0.8", "--delta", "0.9")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["beta_window_lo"] == pytest.approx(0.5)
        assert doc["beta_window_hi"] == 1.0

    def test_b_fails(self):
        proc = run_cli("diagnose", "--alpha", "2", "--rho", "-1", "--beta", "0.5", "--delta", "0.6")
        assert proc.returncode == 0  # a failing condition is data, not an error
        assert json.loads(proc.stdout)["b_holds"] == "fails"

    def test_positive_rho_rejected(self):
        proc = run_cli("diagnose", "--alpha", "1", "--rho", "0.1", "--beta", "0.5", "--delta", "0.6")
        assert proc.returncode == 2
        assert "rho" in proc.stderr

    def test_overflowing_exponent_product_exits_two(self):
        proc = run_cli("diagnose", "--alpha", "1e300", "--rho", "-1", "--beta", "0.5", "--delta", "1e10")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "alpha = 1e+300, delta = 10000000000.0" in proc.stderr
        assert "inf" not in proc.stderr

    def test_rho_omitted_is_exact_pareto(self):
        proc = run_cli("diagnose", "--alpha", "1", "--beta", "0.2", "--delta", "0.9")
        assert proc.returncode == 0, proc.stderr
        want = report_for_parameters(1, None, 0.2, 0.9).to_dict()
        assert json.loads(proc.stdout) == json.loads(json.dumps(want))

    @pytest.mark.parametrize("beta", ["5e-324", "1e-320", "1e-310"])
    @pytest.mark.parametrize("rho", ["-0.5", "-1e-3", "-inf"])
    def test_subnormal_beta_prints_no_inf(self, beta, rho, capsys):
        # -(1-beta)/beta overflows here; written --rho=-1e-3, since argparse
        # reads a separate -1e-3 or -inf as an option
        assert cli.main(["diagnose", "--alpha", "2", f"--rho={rho}", "--beta", beta, "--delta", "0.45"]) == 0
        out = capsys.readouterr().out
        assert not re.search(r"(?i)\b(inf|infinity|nan)\b", out), out
        assert json.loads(out)["rho_ok"] is (rho == "-inf")

    @pytest.mark.parametrize("flag", ["--alpha", "--delta"])
    def test_infinite_exponent_rejected(self, flag):
        args = {"--alpha": "1", "--rho": "-1", "--beta": "0.5", "--delta": "0.6", flag: "inf"}
        proc = run_cli("diagnose", *[x for pair in args.items() for x in pair])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{flag[2:]} must be positive and finite, got inf" in proc.stderr


class TestSimulateCommand:
    ARGS = (
        "simulate",
        "--tail", "burr:tau=1,lambda=2",
        "--light", "zero",
        "--trunc", "A=1,delta=0.45",
        "--n", "500",
        "--seed", "9",
    )

    def test_zero_light_respects_threshold(self):
        proc = run_cli(*self.ARGS)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "x"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 500
        assert max(values) <= 500**0.45

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(*self.ARGS, "--output", str(out1))
        run_cli(*self.ARGS, "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_env_seed_and_flag_precedence(self):
        by_env = run_cli(*self.ARGS[:-2], env_extra={"TRUNCTAIL_SEED": "9"})
        assert by_env.stdout == run_cli(*self.ARGS).stdout
        flag_wins = run_cli(*self.ARGS, env_extra={"TRUNCTAIL_SEED": "1234"})
        assert flag_wins.stdout == run_cli(*self.ARGS).stdout

    def test_bad_env_seed(self):
        proc = run_cli(*self.ARGS[:-2], env_extra={"TRUNCTAIL_SEED": "abc"})
        assert proc.returncode == 2
        assert "TRUNCTAIL_SEED" in proc.stderr

    def test_truncated_fraction_binomial(self):
        proc = run_cli(
            "simulate",
            "--tail", "burr:tau=1,lambda=2",
            "--light", "exp:rate=1",
            "--trunc", "A=1,delta=0.3",
            "--n", "100000",
            "--seed", "3",
        )
        values = np.array([float(v) for v in proc.stdout.strip().split("\n")[1:]])
        closed = design_rates(Burr(tau=1, lam=2), TruncationScheme(A=1, delta=0.3), AdaptiveParams(), 100000)
        p = closed.expected_capped / 100000
        frac = np.mean(values >= closed.threshold)
        assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / 100000)

    def test_grammar_error_exits_two(self):
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=2,bogus=1",
            "--light", "zero", "--trunc", "A=1,delta=0.5", "--n", "10",
        )
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    def test_file_matches_per_value_repr(self, tmp_path):
        from trunctail import TruncatedSampleSpec, parse_light_model, sample_truncated
        from trunctail import parse_tail_model, parse_truncation

        out = tmp_path / "s.csv"
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=1", "--light", "exp:rate=1",
            "--trunc", "A=1,delta=0.5", "--n", "5000", "--seed", "4", "--output", str(out),
        )
        assert proc.returncode == 0
        spec = TruncatedSampleSpec(
            parse_tail_model("pareto:alpha=1"), parse_light_model("exp:rate=1"),
            parse_truncation("A=1,delta=0.5"), 5000, 4,
        )
        values = sample_truncated(spec).values
        assert out.read_text() == "x\n" + "".join(repr(float(v)) + "\n" for v in values)

    @pytest.mark.parametrize("n", [1, _samplefile._WRITE_CHUNK - 1, _samplefile._WRITE_CHUNK,
                                   _samplefile._WRITE_CHUNK + 1, 2 * _samplefile._WRITE_CHUNK + 1])
    def test_chunk_edges_match_per_value_repr(self, tmp_path, capsys, n):
        from trunctail import TruncatedSampleSpec, parse_light_model, sample_truncated
        from trunctail import parse_tail_model, parse_truncation

        args = ["simulate", "--tail", "pareto:alpha=1", "--light", "exp:rate=1",
                "--trunc", "A=1,delta=0.5", "--n", str(n), "--seed", "6"]
        spec = TruncatedSampleSpec(
            parse_tail_model("pareto:alpha=1"), parse_light_model("exp:rate=1"),
            parse_truncation("A=1,delta=0.5"), n, 6,
        )
        want = "x\n" + "".join(repr(float(v)) + "\n" for v in sample_truncated(spec).values)
        out = tmp_path / "s.csv"
        assert cli.main([*args, "--output", str(out)]) == 0
        assert out.read_text() == want
        assert cli.main(args) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("cores", [1, 2])
    def test_pool_and_one_process_match_per_value_repr(self, tmp_path, capsys, monkeypatch, cores):
        from trunctail import TruncatedSampleSpec, parse_light_model, sample_truncated
        from trunctail import parse_tail_model, parse_truncation

        n = 3 * _samplefile._WRITE_CHUNK + 1
        pools = []

        class RecordingPool(concurrent.futures.process.ProcessPoolExecutor):
            def __init__(self, *a, **kw):
                pools.append(kw)
                super().__init__(*a, **kw)

        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(_samplefile, "_usable_cores", lambda: cores)
        # the second design's values are almost all below 1e-4, where the
        # formatter takes each line from repr
        for tail in ["pareto:alpha=1", "pareto:alpha=2,xmin=1e-6"]:
            args = ["simulate", "--tail", tail, "--light", "exp:rate=1",
                    "--trunc", "A=1,delta=0.5", "--n", str(n), "--seed", "8"]
            spec = TruncatedSampleSpec(
                parse_tail_model(tail), parse_light_model("exp:rate=1"),
                parse_truncation("A=1,delta=0.5"), n, 8,
            )
            values = sample_truncated(spec).values
            want = "x\n" + "".join(repr(float(v)) + "\n" for v in values)
            pools.clear()
            out = tmp_path / "s.csv"
            assert cli.main([*args, "--output", str(out)]) == 0
            assert multiprocessing.active_children() == []
            assert out.read_text() == want
            assert cli.main(args) == 0
            assert multiprocessing.active_children() == []
            printed = capsys.readouterr().out
            assert printed == want
            (tmp_path / "stdout.csv").write_text(printed)
            assert len(pools) == (0 if cores == 1 else 2)
            for path in (out, tmp_path / "stdout.csv"):
                assert _read_file(str(path)).tobytes() == values.tobytes()

    def test_closed_stdout_pipe_exits_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "trunctail", *self.ARGS[:-4], "--n", "100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.stdout.read(2) == b"x\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_closed_output_fifo_exits_quietly(self, tmp_path):
        fifo = tmp_path / "s.fifo"
        os.mkfifo(fifo)
        proc = subprocess.Popen(
            [sys.executable, "-m", "trunctail", *self.ARGS[:-4], "--n", "100000",
             "--output", str(fifo)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
        )
        # opened non-blocking, so a writer that never opens the FIFO fails the
        # select instead of hanging the suite
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert select.select([reader], [], [], 60)[0]
            assert os.read(reader, 2) == b"x\n"
        finally:
            os.close(reader)
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    @pytest.mark.parametrize("trunc, named", [
        ("A=1,delta=1000", "A = 1.0, delta = 1000.0"),
        ("A=1e308,delta=1", "A = 1e+308, delta = 1.0"),
    ])
    def test_overflowing_threshold_exits_two(self, trunc, named):
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=2", "--light", "zero",
            "--trunc", trunc, "--n", "100",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"M_n = A * n**delta overflows at n = 100: {named}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_overflowing_light_rate_exits_two(self):
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=2", "--light", "exp:rate=1e-320",
            "--trunc", "A=1,delta=0.5", "--n", "10",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "rate must be" in proc.stderr
        assert "Warning" not in proc.stderr

    @pytest.mark.parametrize("tail", ["pareto:alpha=0.001", "burr:tau=1,lambda=1e-5"])
    def test_overflowing_heavy_draws_are_capped_silently(self, tail):
        proc = run_cli(
            "simulate", "--tail", tail, "--light", "exp:rate=1",
            "--trunc", "A=1,delta=0.5", "--n", "5", "--seed", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        values = [float(v) for v in proc.stdout.split()[1:]]
        assert len(values) == 5
        assert all(5**0.5 < v < math.inf for v in values)

    def test_overflowing_capped_value_exits_two(self):
        proc = run_cli(
            "simulate", "--tail", "pareto:alpha=2,xmin=1e308", "--light", "uniform:b=1e308",
            "--trunc", "A=1e308,delta=0.01", "--n", "5", "--seed", "1",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: M_n + L overflows: M_n = 1.0162245912673255e+308, light = Uniform(b=1e+308)\n"
        )


def _die(chunk):
    os._exit(1)


def _touch(path: str) -> str:
    Path(path).touch()
    return path


def _is_running(pid: str) -> bool:
    """False once pid has exited, also while it waits as a zombie for a
    parent that does not reap it."""
    stat = subprocess.run(["ps", "-o", "stat=", "-p", pid], capture_output=True, text=True).stdout.strip()
    return stat != "" and not stat.startswith("Z")


def _running_children(pid: int) -> list[str]:
    kids = subprocess.run(["pgrep", "-P", str(pid)], capture_output=True, text=True).stdout.split()
    return [k for k in kids if _is_running(k)]


class TestChunkPool:
    # simulate on a pool of two workers, whatever the cores of the machine
    POOLED = ("import sys; from trunctail import _samplefile, cli; _samplefile._usable_cores = lambda: 2; "
              "sys.exit(cli.main(sys.argv[1:]))")

    @pytest.mark.parametrize("name", ["SIGTERM", "SIGKILL", "SIGINT"])
    def test_stopped_command_leaves_no_worker(self, name):
        sig = getattr(signal, name)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.POOLED, *TestSimulateCommand.ARGS[:-4], "--n", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
            start_new_session=True,
        )
        workers = []
        try:
            # unread, the pipe fills and simulate blocks with its workers started
            assert proc.stdout.read(2) == b"x\n"
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _running_children(proc.pid)
            assert len(workers) == 2
            if sig == signal.SIGINT:  # Ctrl-C reaches the terminal's whole process group
                os.killpg(proc.pid, sig)
            else:
                proc.send_signal(sig)
            proc.wait(timeout=60)
            deadline = time.monotonic() + 60
            while (left := [w for w in workers if _is_running(w)]) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert left == []
            err = proc.stderr.read().decode()
            assert "ForkProcess" not in err
            if sig == signal.SIGINT:
                assert proc.returncode == 130  # 128 + SIGINT
                assert "Traceback" not in err
                assert err.endswith("error: interrupted\n")
        finally:
            proc.kill()
            for w in workers:
                if _is_running(w):
                    os.kill(int(w), signal.SIGKILL)
            proc.wait(timeout=60)
            proc.stdout.close()
            proc.stderr.close()

    @pytest.mark.parametrize("func", ["repr_lines", "_parse_chunk"])
    def test_dead_worker_exits_two(self, tmp_path, monkeypatch, capsys, func):
        monkeypatch.setattr(_samplefile, "_usable_cores", lambda: 2)
        sample = tmp_path / "s.csv"
        argv = [*TestSimulateCommand.ARGS[:-4], "--n", str(3 * _samplefile._WRITE_CHUNK), "--output", str(sample)]
        if func == "_parse_chunk":
            assert cli.main(argv) == 0
            # estimate reads a CRLF file on the pool, not from its top alone
            sample.write_bytes(sample.read_bytes().replace(b"\n", b"\r\n"))
            monkeypatch.setattr(_samplefile, "_READ_PIECE", 2**16)
            argv = ["estimate", "--input", str(sample)]
        monkeypatch.setattr(_reprtext if func == "repr_lines" else _samplefile, func, _die)
        assert cli.main(argv) == 2
        assert multiprocessing.active_children() == []
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_failing_sink_cancels_chunks_not_started(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_samplefile, "_usable_cores", lambda: 2)

        def sink(result):
            raise BrokenPipeError

        with pytest.raises(BrokenPipeError):
            _samplefile._map_chunks(_touch, [str(tmp_path / str(i)) for i in range(64)], sink)
        assert multiprocessing.active_children() == []
        # at most two chunks per worker are ever submitted ahead of the sink
        assert len(list(tmp_path.iterdir())) <= 4

    def test_maps_here_without_fork(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_samplefile, "_usable_cores", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", None)
        got = []
        _samplefile._map_chunks(_touch, [str(tmp_path / str(i)) for i in range(5)], got.append)
        assert got == [str(tmp_path / str(i)) for i in range(5)]


class TestExperimentCommand:
    @staticmethod
    def spec_doc(**kw):
        doc = {
            "tail": "burr:tau=1,lambda=2",
            "light": "exp:rate=1",
            "trunc": "A=1,delta=0.45",
            "beta": 0.8,
            "gamma": 0.5,
            "level": 0.95,
            "n_list": [4000],
            "replications": 3,
            "base_seed": 77,
        }
        doc.update(kw)
        return doc

    def write_spec(self, tmp_path, **kw):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.spec_doc(**kw)))
        return path

    def test_writes_three_artifacts(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = tmp_path / "run"
        proc = run_cli("experiment", "--spec", str(spec), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        agg = json.loads(proc.stdout)
        assert agg == json.loads((tmp_path / "run_aggregate.json").read_text())
        reps = (tmp_path / "run_replications.csv").read_text().strip().split("\n")
        assert reps[0] == "n,index,k_hat,h,z,z_plugin,covers,failed"
        assert len(reps) == 4
        qq = (tmp_path / "run_qq.csv").read_text().strip().split("\n")
        assert qq[0] == "n,theoretical_quantile,empirical_quantile"

    def test_single_replication_composes(self, tmp_path):
        # experiment with R = 1 must equal simulate piped into estimate
        n, base = 4000, 77
        spec = self.write_spec(tmp_path, replications=1)
        out = tmp_path / "one"
        run_cli("experiment", "--spec", str(spec), "--out", str(out))
        row = (tmp_path / "one_replications.csv").read_text().strip().split("\n")[1].split(",")

        seed = replication_seed(base, n, 0)
        sample_file = tmp_path / "sample.csv"
        run_cli(
            "simulate", "--tail", "burr:tau=1,lambda=2", "--light", "exp:rate=1",
            "--trunc", "A=1,delta=0.45", "--n", str(n), "--seed", str(seed),
            "--output", str(sample_file),
        )
        est = json.loads(
            run_cli("estimate", "--input", str(sample_file), "--beta", "0.8", "--gamma", "0.5").stdout
        )
        assert int(row[2]) == est["k_hat"]
        assert float(row[3]) == pytest.approx(est["h"], rel=1e-12)

    def test_threads_do_not_change_output(self, tmp_path):
        spec = self.write_spec(tmp_path, replications=12)
        one = run_cli("experiment", "--spec", str(spec), "--threads", "1")
        many = run_cli("experiment", "--spec", str(spec), "--threads", "8")
        assert one.stdout == many.stdout

    @pytest.mark.parametrize("threads", ["-4", "0"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        spec = self.write_spec(tmp_path)
        proc = run_cli("experiment", "--spec", str(spec), "--threads", threads)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"--threads must be >= 1, got {threads}" in proc.stderr

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "exp.json"
        doc = self.spec_doc()
        del doc["replications"]
        path.write_text(json.dumps(doc))
        proc = run_cli("experiment", "--spec", str(path))
        assert proc.returncode == 2
        assert "replications" in proc.stderr

    @pytest.mark.parametrize(
        "field, value",
        [("base_seed", -3), ("base_seed", True), ("n_list", [100.7]), ("replications", True)],
    )
    def test_non_integer_fields_rejected(self, tmp_path, field, value):
        spec = self.write_spec(tmp_path, **{field: value})
        proc = run_cli("experiment", "--spec", str(spec))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"{field} must be" in proc.stderr

    def test_json_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{\n  "tail": "burr:tau=1,lambda=2",\n  oops\n}\n')
        proc = run_cli("experiment", "--spec", str(path))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.spec_doc(extra=1)))
        proc = run_cli("experiment", "--spec", str(path))
        assert proc.returncode == 2
        assert "extra" in proc.stderr

    def test_repeated_field_rejected(self, tmp_path, capsys):
        # json.loads alone keeps the last value, and the study would run
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self.spec_doc())[:-1] + ', "base_seed": 2}')
        assert cli.main(["experiment", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: duplicate field 'base_seed'\n"

    @pytest.mark.parametrize("field", ["beta", "gamma", "level"])
    @pytest.mark.parametrize("text", ["1" + "0" * 400, "true", '"0.8"'])
    def test_unit_fields_take_only_json_numbers(self, tmp_path, capsys, field, text):
        # no double holds the 400-digit integer, and a bool or a string is
        # not a number, as the integer fields refuse them too
        doc = self.spec_doc()
        del doc[field]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc)[:-1] + f', "{field}": {text}}}')
        assert cli.main(["experiment", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: field '{field}': must be a JSON number, got {text}\n"

    @pytest.mark.parametrize("field", ["beta", "gamma", "level", "n_list", "replications", "base_seed"])
    def test_integer_past_the_int_digit_limit_names_its_field(self, tmp_path, capsys, field):
        # int() converts at most 4,300 digits, and json.loads would raise its
        # message, which names no field
        doc = self.spec_doc()
        del doc[field]
        digits = "1" + "0" * 5000
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc)[:-1] + f', "{field}": ' + (f"[{digits}]" if field == "n_list" else digits) + "}")
        assert cli.main(["experiment", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: field '{field}': integer of 5001 digits is out of range\n"

    def test_level_rounding_to_one_refused_before_any_replication(self, tmp_path, monkeypatch, capsys):
        def no_replication(*args):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(montecarlo, "run_replication", no_replication)
        spec = self.write_spec(tmp_path, level=0.9999999999999999)
        out = tmp_path / "run"
        assert cli.main(["experiment", "--spec", str(spec), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{spec}: level must be at most 1 - 2**-52, got 0.9999999999999999" in captured.err
        assert list(tmp_path.iterdir()) == [spec]

    def test_experiment_wide_failure_exits_four(self, tmp_path):
        spec = self.write_spec(tmp_path, n_list=[1], replications=2)
        proc = run_cli("experiment", "--spec", str(spec))
        assert proc.returncode == 4
        assert "failed" in proc.stderr


class TestUsage:
    def test_no_subcommand(self):
        assert run_cli().returncode == 2

    def test_unknown_flag(self):
        assert run_cli("estimate", "--nope", "x").returncode == 2


def test_commands_call_the_names_rebound_in_cli(tmp_path, monkeypatch):
    # the benchmark's tracer rebinds these names in cli, and a command that
    # binds its modules' names as it starts must keep them
    calls = []
    for name in ("sample_truncated", "SampleData", "estimate", "sample_c_statistic", "report_for_parameters"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _name=name, **kw: calls.append(_name) or _f(*a, **kw))
    sample = tmp_path / "s.csv"
    assert cli.main([*TestSimulateCommand.ARGS, "--output", str(sample)]) == 0
    # CRLF lines take the full reader, which builds a SampleData
    sample.write_bytes(sample.read_bytes().replace(b"\n", b"\r\n"))
    assert cli.main(["estimate", "--input", str(sample)]) == 0
    assert cli.main(["diagnose", "--alpha", "2", "--beta", "0.8", "--delta", "0.45"]) == 0
    assert calls == ["sample_truncated", "SampleData", "estimate", "sample_c_statistic", "report_for_parameters"]


class TestHugeOrUndecodableInput:
    SIMULATE = ("simulate", "--tail", "pareto:alpha=2", "--light", "zero", "--trunc", "A=1,delta=0.5")

    # 10**15 values ask for 8 PB, beyond any 64-bit address space, so the
    # allocation fails at once; 10**20 exceeds numpy's largest array length
    @pytest.mark.parametrize("n", [10**15, 10**20])
    def test_simulate_huge_n_exits_two_naming_n(self, n):
        proc = run_cli(*self.SIMULATE, "--n", str(n))
        assert proc.returncode == 2
        assert str(n) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_experiment_huge_n_exits_two_naming_n(self, tmp_path):
        n = 10**20
        spec = TestExperimentCommand().write_spec(tmp_path, n_list=[n])
        proc = run_cli("experiment", "--spec", str(spec))
        assert proc.returncode == 2
        assert str(n) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_experiment_too_much_work_exits_two(self, tmp_path):
        # below numpy's array limit, but one replication's 10**15 raw words take months
        n = 10**15
        spec = TestExperimentCommand().write_spec(tmp_path, n_list=[n])
        proc = run_cli("experiment", "--spec", str(spec), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert str(spec) in proc.stderr
        assert f"n = {n} in n_list" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_experiment_too_many_replications_exits_two(self, tmp_path):
        # a record per replication: 10**12 of them would fill any memory
        spec = TestExperimentCommand().write_spec(tmp_path, replications=10**12)
        proc = run_cli("experiment", "--spec", str(spec), timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "replications" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--input", "--spec"])
    def test_undecodable_file_is_named(self, tmp_path, flag):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe1\x00\n\x00")
        command = "estimate" if flag == "--input" else "experiment"
        proc = run_cli(command, flag, str(path))
        assert proc.returncode == 2
        assert str(path) in proc.stderr
        assert "Traceback" not in proc.stderr
