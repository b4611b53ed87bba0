"""Bounded fuzz test of the CLI contract: every generated command line or spec
either works or exits 2, 3 or 4; there is no traceback, no leaked numpy
warning, no inf or nan in any output, and an exit 2 names the bad input.

Valid values are drawn half the time at the edges of their range
(subnormals, 1e308, the largest double below 1). Half of the examples are
noisy: there about one value in ten is extreme (0, inf, nan, a negative, any
float, text that is no number), and model strings, spec documents and flags
may hold unknown, duplicate or missing parts. Fixed cases give each spec
field a NaN or Infinity literal, a nested object or a repeated key, give the
float fields an integer no double holds, and feed the loader malformed
JSON."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunctail import cli

_EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -1.0, -1e-3, 1.0]),
    st.floats(),
    st.sampled_from(["", "abc", "1e999", "0x10", "1_0", " 2 "]),
)
_UNIT = st.one_of(st.floats(0.05, 0.95), st.sampled_from([5e-324, 1e-320, math.nextafter(1.0, 0.0)]))
_POSITIVE = st.one_of(st.floats(0.2, 5.0),
                      st.sampled_from([5e-324, 1e-305, 1e-300, 1e300, 1.7976931348623157e308]))
_DELTA = st.floats(0.1, 1.0)
_SEED_EDGES = st.sampled_from([0, 2**64 - 1, 2**64, -1, True])
_BAD_OUTPUT = re.compile(r"(?i)\b(inf|infinity|nan)\b")


def _rarely(draw, noisy: bool, odds: int = 10) -> bool:
    """True about one time in odds, and only in a noisy example."""
    return noisy and draw(st.integers(1, odds)) == odds


def _value(draw, valid, noisy: bool) -> str:
    """A value from valid, or at times an extreme one, as text."""
    value = draw(_EXTREME) if _rarely(draw, noisy) else draw(valid)
    return value if isinstance(value, str) else repr(value)


def _model(draw, grammar, noisy: bool) -> tuple[str, set[str]]:
    """A model string from the grammar {name: {key: valid values}}, at times
    with an unknown name, an unknown, duplicate or missing key; returned with
    the words it contains."""
    name = draw(st.sampled_from(sorted(grammar)))
    keys = dict(grammar[name])
    if _rarely(draw, noisy):
        name, keys = draw(st.sampled_from([("cauchy", keys), (name, {**keys, "bogus": _UNIT})]))
    parts = [(key, _value(draw, valid, noisy)) for key, valid in keys.items()]
    if parts and _rarely(draw, noisy):
        parts.append(parts[0] if draw(st.booleans()) else parts.pop())
    body = ",".join(f"{k}={v}" for k, v in parts)
    text = draw(st.sampled_from([name, name.upper()])) + (f":{body}" if body else "")
    return text, {name, *keys, *(v.strip() for _, v in parts)}


_GRAMMARS = {
    "tail": {"pareto": {"alpha": _POSITIVE, "xmin": _POSITIVE},
             "burr": {"tau": _POSITIVE, "lambda": _POSITIVE}},
    "light": {"zero": {}, "exp": {"rate": _POSITIVE}, "uniform": {"b": _POSITIVE}},
    "trunc": {"trunc": {"a": _POSITIVE, "delta": _DELTA}},
}


def _models(draw, noisy: bool) -> tuple[dict[str, str], set[str]]:
    """tail, light and trunc model strings, with the words they contain."""
    models, names = {}, set(_GRAMMARS)
    for field, grammar in _GRAMMARS.items():
        models[field], words = _model(draw, grammar, noisy)
        names |= words
    return models, names


def _flags(draw, options, noisy: bool) -> tuple[list[str], set[str]]:
    """--flag=value for each option {flag: valid values}, at times left out;
    the '=' keeps a negative value such as -1e-3 from reading as an option.
    Returned with the words they contain."""
    argv, names = [], set(options)
    for flag, valid in options.items():
        if not _rarely(draw, noisy, 20):
            value = _value(draw, valid, noisy)
            argv.append(f"--{flag}={value}")
            names.add(value.strip())
    return argv, names


def _check(argv, names, written=(), hide=""):
    """Run main(argv) in process and check the contract on its outcome; on
    exit 2, stderr without the text hide must hold one of names as a word."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ):
        os.environ.pop(cli.SEED_ENV_VAR, None)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, argv
    for text in (out, *(p.read_text() for p in written if p.exists())):
        assert not _BAD_OUTPUT.search(text), (argv, text[:500])
    if code == 2:
        err = err.replace(hide, "") if hide else err
        assert any(re.search(rf"(?<!\w){re.escape(name)}(?!\w)", err, re.IGNORECASE)
                   for name in names if name), (argv, err)
    return code


_FUZZ = settings(derandomize=True, deadline=None)

# a valid spec, for the fixed cases to break one part of
_SPEC = {"tail": "pareto:alpha=1", "light": "zero", "trunc": "A=1,delta=0.5",
         "n_list": [200], "replications": 2, "base_seed": 1}


def _check_spec(tmp_path, text: str, names) -> None:
    """The contract for an experiment whose spec file holds text, which
    must be refused with exit 2."""
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert _check(["experiment", f"--spec={path}"], names, hide=str(path)) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCliFuzz:
    @settings(_FUZZ, max_examples=200)
    @given(st.data())
    def test_diagnose(self, data):
        options = {"alpha": _POSITIVE, "rho": st.floats(-5.0, -0.01), "beta": _UNIT, "delta": _DELTA}
        argv, names = _flags(data.draw, options, data.draw(st.booleans()))
        _check(["diagnose", *argv], names)

    @settings(_FUZZ, max_examples=150)
    @given(st.data())
    def test_estimate(self, data):
        noisy = data.draw(st.booleans())
        lines = [repr(v) for v in data.draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50))]
        if _rarely(data.draw, noisy, 4):
            lines[data.draw(st.integers(0, len(lines) - 1))] = str(data.draw(_EXTREME))
        header = data.draw(st.sampled_from([[], ["x"]]))
        argv, names = _flags(data.draw, {"beta": _UNIT, "gamma": _UNIT, "level": _UNIT}, noisy)
        if data.draw(st.integers(1, 3)) == 3:  # at times a forced count
            k = _value(data.draw, st.integers(2, 60), noisy)
            argv, names = [*argv, f"--k={k}"], names | {"k", k}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "sample.csv")
            path.write_text("\n".join(header + lines) + "\n")
            _check(["estimate", f"--input={path}", *argv], names | {str(path)})

    @settings(_FUZZ, max_examples=100)
    @given(st.data())
    def test_simulate(self, data):
        noisy = data.draw(st.booleans())
        models, names = _models(data.draw, noisy)
        seed = st.integers(0, 2**64 - 1)
        argv, more = _flags(data.draw, {"n": st.integers(1, 1000),
                                        "seed": st.one_of(seed, _SEED_EDGES) if noisy else seed}, noisy)
        argv += [f"--{field}={text}" for field, text in models.items()]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "sample.csv")
            argv += [] if data.draw(st.booleans()) else [f"--output={out}"]
            _check(["simulate", *argv], names | more, written=[out])

    @settings(_FUZZ, max_examples=60)
    @given(st.data())
    def test_experiment(self, data):
        noisy = data.draw(st.booleans())
        models, names = _models(data.draw, noisy)
        n = st.one_of(st.integers(200, 2000), st.integers(1, 2000))
        if noisy:
            n = st.one_of(n, st.sampled_from([0, 2**44 + 1, 10**20, True, 1.5, "9"]))
        doc = {
            **models,
            "n_list": data.draw(st.lists(n, min_size=1, max_size=3, unique_by=str)),
            "replications": data.draw(st.integers(1, 3)),
            "base_seed": data.draw(st.integers(0, 2**64 - 1)),
        }
        if _rarely(data.draw, noisy, 4):
            doc[data.draw(st.sampled_from(["replications", "base_seed"]))] = data.draw(
                st.one_of(_SEED_EDGES, st.sampled_from([0, 2.0, "3"])))
        for field in ("beta", "gamma", "level"):
            if data.draw(st.booleans()):
                text = _value(data.draw, _UNIT, noisy)
                try:
                    doc[field] = float(text)
                except ValueError:
                    doc[field] = text
        if _rarely(data.draw, noisy):
            if data.draw(st.booleans()):
                del doc[data.draw(st.sampled_from(sorted(doc)))]
            else:
                doc["extra"] = 1
        names |= set(cli._SPEC_FIELDS) | {"extra"}
        names |= {str(v) for v in [*doc.values(), *doc.get("n_list", [])] if not isinstance(v, list)}
        text = json.dumps(doc)
        if _rarely(data.draw, noisy):
            field = data.draw(st.sampled_from(sorted(doc)))
            repeated = f'{text[:-1]}, "{field}": {json.dumps(doc[field])}}}'
            text = data.draw(st.sampled_from([text[:-1], text[:-1] + ",}", repeated, "[]", "3"]))
            names |= {"line", "top level"}
        threads = 0 if _rarely(data.draw, noisy) else data.draw(st.integers(1, 4))
        with tempfile.TemporaryDirectory() as tmp:
            spec, prefix = Path(tmp, "spec.json"), Path(tmp, "run")
            spec.write_text(text)
            written = [Path(f"{prefix}{s}") for s in ("_replications.csv", "_aggregate.json", "_qq.csv")]
            _check(["experiment", f"--spec={spec}", f"--out={prefix}", f"--threads={threads}"],
                   names | {"threads", str(threads)}, written=written, hide=str(spec))

    def test_spec_field_literal_or_repeat(self, tmp_path):
        for field in cli._SPEC_FIELDS:
            values = ["NaN", "Infinity", "-Infinity", '{"n_list": [200]}', "[{}]", None, "1" + "0" * 400]
            for value in values:
                members = [f'"{k}": {json.dumps(v)}' for k, v in _SPEC.items() if k != field]
                if value is None:  # the field given twice
                    members += [f'"{field}": {json.dumps(_SPEC.get(field, 0.5))}'] * 2
                else:
                    members.append(f'"{field}": {value}')
                _check_spec(tmp_path, "{" + ", ".join(members) + "}", {field})

    def test_malformed_spec_json(self, tmp_path):
        for text in ['{"tail": "pareto:alpha=1",}', '{"n_list": [200,]}', '{"tail": "pareto:alpha=1"',
                     "", "NaN", "Infinity", '{"tail": {"x": 1, "x": 2}}']:
            _check_spec(tmp_path, text, {"line", "top level", "x"})
