import dataclasses
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import DIMER_H, conditioned_spectrum, random_real_spectrum
from helpers import TIMEOUT, run_cli
from quasiherm import DEFAULT_TOL, Metric, errors, hermitize, shared_metric
from quasiherm.cli import _tolerances, build_parser, main
from quasiherm.matfile import (
    MatrixFileError,
    dump_matrix,
    emit_json,
    load_matrix_file,
    parse_matrix,
    report_document,
    write_matrix_file,
)

# Floats whose ".17g" text needs care: signed zeros, subnormals, the ends of
# the float range, integral values that print without a decimal point, and
# the non-finite values that ".17g" spells as JSON does not.
AWKWARD_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -3.5e-320, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 1e-300, -1e-300, 1.0, -2.0, 1e16,
    -9007199254740993.0, 0.1, -0.1, 1.0 / 3.0, 123456789.0, math.inf, -math.inf, math.nan,
]


def write_h(tmp_path, name, m):
    path = tmp_path / name
    write_matrix_file(path, np.asarray(m, dtype=np.complex128))
    return str(path)


class TestMatrixFiles:
    def test_round_trip_exact(self, tmp_path):
        awkward = np.array(
            [
                [0.1 + 1j / 3.0, complex(-0.0, 1e18)],
                [5e-324 + 0.0j, -7.123456789012345e-5 + 2.0j],
            ]
        )
        path = write_h(tmp_path, "m.json", awkward)
        back = load_matrix_file(path)
        assert np.array_equal(back, awkward)
        assert np.signbit(back[0, 1].real)

    def test_document_shape(self):
        doc = dump_matrix(np.eye(2))
        assert doc["rows"] == 2 and doc["cols"] == 2
        assert doc["data"].tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        assert emit_json(doc) == reference_emit(doc)

    def test_parse_rejects_bad_documents(self):
        with pytest.raises(MatrixFileError):
            parse_matrix([1, 2, 3])
        with pytest.raises(MatrixFileError):
            parse_matrix({"rows": 2, "cols": 2})
        with pytest.raises(MatrixFileError):
            parse_matrix({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})
        with pytest.raises(MatrixFileError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[1.0, "x"]]})
        with pytest.raises(MatrixFileError):
            parse_matrix({"rows": 1, "cols": 1, "data": [[True, 0.0]]})
        with pytest.raises(MatrixFileError):
            parse_matrix({"rows": 0, "cols": 1, "data": []})

    def test_dump_matches_entrywise(self):
        m = np.array([[complex(-0.0, 0.0), complex(1.5, -0.0)],
                      [complex(-2.0, -0.0), complex(1e-300, 3.0)]])
        data = dump_matrix(m)["data"].tolist()
        assert data == [[float(z.real), float(z.imag)] for z in m.ravel()]
        flat = [x for pair in data for x in pair]
        assert [np.signbit(x) for x in flat] == [True, False, False, True, True, True, False, False]
        assert all(type(x) is float for x in flat)

    def test_parse_mixed_numbers(self):
        data = [[1, -0.0], [2.5, 3], [np.float64(0.25), -7]]
        out = parse_matrix({"rows": 1, "cols": 3, "data": data})
        expected = np.array([complex(re, im) for re, im in data])
        assert out.shape == (1, 3)
        assert out.ravel().view(np.float64).tobytes() == expected.view(np.float64).tobytes()

    def test_parse_names_the_bad_entry(self):
        data = [[1.0, 0.0]] * 3 + [[1.0, True]]
        with pytest.raises(MatrixFileError, match=r"data\[3\]"):
            parse_matrix({"rows": 2, "cols": 2, "data": data})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_entries_exit(self, tmp_path, capsys, literal):
        # json.load accepts these literals; the finiteness check must refuse them
        path = tmp_path / "h.json"
        path.write_text(f'{{"rows": 1, "cols": 2, "data": [[1.0, 0.0], [{literal}, 0.0]]}}')
        assert main(["hermitize", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: matrix entries must be finite"]

    def test_emitter_is_plain_json(self):
        doc = dump_matrix(DIMER_H)
        parsed = json.loads(emit_json(doc))
        assert parsed["rows"] == 2
        assert parsed["data"][0] == [0.0, 0.75]

    def test_matrix_data_bytes(self):
        m = np.array([
            [complex(-0.0, 0.0), complex(1.0 / 3.0, -0.0)],
            [complex(1e-300, 5e-324), complex(0.0, -1.0 / 3.0)],
        ])
        assert emit_json(dump_matrix(m)) == (
            '{\n  "rows": 2,\n  "cols": 2,\n  "data": [\n'
            "    [-0.0, 0],\n"
            "    [0.33333333333333331, -0.0],\n"
            "    [1e-300, 4.9406564584124654e-324],\n"
            "    [0, -0.33333333333333331]\n"
            "  ]\n}"
        )

    @pytest.mark.parametrize("data", [[[1, 2], [3, 4]], [[True, False]], [[1.5, 2]]])
    def test_pair_lists_refused(self, data):
        # matrix data is the (entries, 2) float array dump_matrix builds
        with pytest.raises(TypeError, match="cannot serialize <class 'list'>"):
            emit_json({"data": data})


def reference_emit(value, indent=0):
    """emit_json's generic path, with matrix data as [re, im] lists."""
    pad = "  " * indent
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        items = [f'{pad}  "{k}": {reference_emit(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if not any(isinstance(v, (dict, list)) for v in value):
            return "[" + ", ".join(reference_emit(v, indent) for v in value) + "]"
        items = [f"{pad}  {reference_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == 0.0 and math.copysign(1.0, value) < 0:
            return "-0.0"
        if not math.isfinite(value):
            return json.dumps(value)
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(type(value))


class TestEmitterBytes:
    @staticmethod
    def assert_report_bytes(theta, avatar):
        _sys, _dmap, _metric, _avatar, report = hermitize(DIMER_H)
        report = dataclasses.replace(report, energies=np.array(AWKWARD_FLOATS))
        metric = Metric(theta, np.ones(theta.shape[0]))
        doc = report_document(report, metric, avatar, DEFAULT_TOL)
        assert emit_json(doc) == reference_emit(doc)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 3), (3, 1), (17, 17)])
    def test_awkward_floats(self, shape):
        floats = np.resize(np.array(AWKWARD_FLOATS), 2 * shape[0] * shape[1])
        m = floats.view(np.complex128).reshape(shape)
        self.assert_report_bytes(m, -m[::-1])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=2 * 10**4, dtype=np.uint64)
        floats = bits.view(np.float64)
        per_report = 2 * 2 * 17 * 17
        count = -(-(10**4) // per_report) * per_report
        floats = floats[np.isfinite(floats)][:count]
        assert floats.size == count
        for pair in floats.view(np.complex128).reshape(-1, 2, 17, 17):
            self.assert_report_bytes(pair[0], pair[1])

    def test_empty_data(self):
        doc = {"rows": 0, "cols": 0, "data": np.empty((0, 2))}
        assert emit_json(doc) == reference_emit(doc) == '{\n  "rows": 0,\n  "cols": 0,\n  "data": []\n}'

    @pytest.mark.parametrize("array", [
        np.array([1.0, 2.0]), np.ones((2, 3)), np.ones((2, 2, 1)), np.ones((2, 2), dtype=complex),
        np.array(1.0), np.array([[True, False]]), np.array([[2**60 + 1, 3]]),
        np.array([[2**64 - 1, 0]], dtype=np.uint64), np.ones((2, 0)),
    ])
    def test_array_not_of_pairs_refused(self, array):
        message = f"array of shape {array.shape} and dtype {array.dtype}"
        with pytest.raises(TypeError, match=re.escape(message)):
            emit_json({"x": array})

    @pytest.mark.parametrize("value", [(1.0, 2.0), None, [[1.0, 2.0]], [{"a": 1.0}], np.int64(1)],
                             ids=["tuple", "None", "list_of_lists", "list_with_dict", "int64"])
    def test_value_no_document_holds_refused(self, value):
        inner = value[0] if isinstance(value, list) else value
        with pytest.raises(TypeError, match=re.escape(f"cannot serialize {type(inner)!r}")):
            emit_json({"x": value})

    def test_non_finite_floats_are_json(self):
        doc = {"data": np.array([[math.inf, -math.inf], [math.nan, -0.0]]),
               "scalars": [math.inf, -math.inf, math.nan]}
        text = emit_json(doc)
        assert text == reference_emit(doc)
        assert "[Infinity, -Infinity],\n    [NaN, -0.0]" in text
        assert '"scalars": [Infinity, -Infinity, NaN]' in text
        parsed = json.loads(text)
        assert float_bits(parsed["data"]) == doc["data"].tobytes()
        assert float_bits(parsed["scalars"]) == float_bits(doc["scalars"])


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestReportRoundTrip:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           zeros=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
           special=st.sampled_from([-0.0, math.inf, -math.inf, math.nan]))
    def test_json_returns_the_float_bits(self, seed, n, zeros, special):
        h, _energies, _s = random_real_spectrum(np.random.default_rng(seed), n, cond_cap=1e3)
        _sys, _dmap, metric, avatar, report = hermitize(h)
        # plant negative zeros, whose sign a plain "%.17g" would drop, and
        # non-finite values, which "%.17g" spells as json.loads does not read
        floats = [report.energies, metric.theta.view(np.float64), avatar.view(np.float64)]
        for z in zeros:
            target = floats[z % 3].reshape(-1)
            target[z % target.size] = -0.0 if z % 2 else special
        report = dataclasses.replace(report, residual_isospectral=special)
        doc = json.loads(emit_json(report_document(report, metric, avatar, DEFAULT_TOL)))
        assert float_bits(doc["energies"]) == float_bits(report.energies)
        residuals = [report.residual_quasi_herm, report.residual_avatar_herm,
                     report.residual_isospectral, report.metric_condition]
        assert float_bits(list(doc["residuals"].values())) == float_bits(residuals)
        assert float_bits(doc["metric"]["data"]) == metric.theta.tobytes()
        assert float_bits(doc["avatar"]["data"]) == avatar.tobytes()


class TestHermitizeCommand:
    def test_dimer_passes(self, tmp_path, capsys):
        path = write_h(tmp_path, "h.json", DIMER_H)
        assert main(["hermitize", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["family"] == "I"
        assert doc["energies"][0] == pytest.approx(-1.0, abs=1e-12)
        assert doc["energies"][1] == pytest.approx(1.0, abs=1e-12)
        assert list(doc) == ["energies", "family", "residuals", "metric", "avatar", "passed", "tolerances"]

    def test_k_diag_and_hermitian_omega_share_metric(self, tmp_path, capsys):
        path = write_h(tmp_path, "h.json", DIMER_H)
        assert main(["hermitize", path, "--k-diag", "2,0.5"]) == 0
        doc_k = json.loads(capsys.readouterr().out)
        assert doc_k["family"] == "K"
        assert main(["hermitize", path, "--k-diag", "2,0.5", "--hermitian-omega"]) == 0
        doc_ku = json.loads(capsys.readouterr().out)
        assert doc_ku["family"] == "KU"
        a = np.array(doc_k["metric"]["data"])
        b = np.array(doc_ku["metric"]["data"])
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(a))

    @pytest.mark.parametrize("flag", ["--tol-residual", "--tol-reality", "--tol-positivity"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_tolerance_exit(self, tmp_path, capsys, flag, value):
        path = write_h(tmp_path, "h.json", DIMER_H)
        assert main(["hermitize", path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {flag} must be finite"]

    def test_infinite_residual_is_json(self, tmp_path, capsys):
        # ||H|| ||Theta|| overflows, so the intertwining residual is infinite
        path = write_h(tmp_path, "h.json", np.diag([1e300, 2e300]))
        assert main(["hermitize", path, "--k-diag", "1e5,1e5"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"]["quasi_hermiticity"] == math.inf
        assert doc["passed"] is False

    def test_report_round_trips_library_bits(self, tmp_path, capsys):
        h, _energies, _s = random_real_spectrum(np.random.default_rng(5), 32)
        path = write_h(tmp_path, "h.json", h)
        assert main(["hermitize", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        _sys, _dmap, metric, avatar, _report = hermitize(h)
        for key, m in (("metric", metric.theta), ("avatar", avatar)):
            back = np.array(doc[key]["data"], dtype=np.float64)
            assert back.tobytes() == np.ascontiguousarray(m, dtype=np.complex128).tobytes()


class TestModelCommand:
    def test_dimer_files(self, tmp_path, capsys):
        out = tmp_path / "dimer"
        code = main(
            ["model", "dimer", "--omega", "1", "--alpha", "0.6931471805599453",
             "--out-dir", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        h = load_matrix_file(out / "hamiltonian.json")
        assert h[0, 1] == pytest.approx(1.25, abs=1e-14)
        assert h[0, 0] == pytest.approx(0.75j, abs=1e-14)
        theta = load_matrix_file(out / "theta.json")
        assert theta[0, 0] == pytest.approx(1.25, abs=1e-14)
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["family"] == "dimer"

    def test_dimer_coupling_flags(self, tmp_path, capsys):
        out = tmp_path / "dimer2"
        assert main(["model", "dimer", "--kappa", "1.25", "--gamma", "0.75",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        h = load_matrix_file(out / "hamiltonian.json")
        assert h[1, 1] == pytest.approx(-0.75j, abs=1e-14)

    def test_fermion_files(self, tmp_path, capsys):
        out = tmp_path / "fermion"
        assert main(["model", "fermion", "--alpha", "4", "--beta", "1", "--omega", "0.3",
                     "--out-dir", str(out)]) == 0
        capsys.readouterr()
        theta = load_matrix_file(out / "theta.json")
        assert theta[0, 0] == pytest.approx(2.0)
        assert theta[3, 3] == pytest.approx(5.0)
        assert theta[0, 3] == pytest.approx(-3.0)
        avatar = load_matrix_file(out / "avatar.json")
        assert avatar[0, 3] == pytest.approx(2.0)

    def test_rapidity_flags_beyond_squaring(self, tmp_path, capsys):
        # --kappa 1e300 --gamma 0 still exits 2: dimer_from_coupling squares kappa
        assert main(["model", "dimer", "--omega", "1e300", "--alpha", "0",
                     "--out-dir", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["energies"] == [-1e300, 1e300]

    def test_rapidity_beyond_float64_exit(self, tmp_path, capsys):
        assert main(["model", "dimer", "--omega", "1", "--alpha", "20",
                     "--out-dir", str(tmp_path)]) == 6
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("EPRegion: alpha = 20: ")
        assert "round to the same float64" in lines[0]
        # below the rounding the metric gate decides, as before
        assert main(["model", "dimer", "--omega", "1", "--alpha", "18",
                     "--out-dir", str(tmp_path)]) == 5
        assert capsys.readouterr().err.startswith("NotPositiveDefinite: ")


class TestToleranceFlags:
    @pytest.mark.parametrize("argv", [["hermitize", "h.json"], ["model", "dimer"],
                                      ["compat", "h1.json", "h2.json"]])
    def test_defaults_are_library_defaults(self, argv):
        assert _tolerances(build_parser().parse_args(argv)) == DEFAULT_TOL


class TestScanCommand:
    def test_grid_and_single_ep_run(self, capsys):
        assert main(["scan", "--kappa", "1", "--gamma-min", "0.9", "--gamma-max", "1.1",
                     "--step", "0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "gamma,min_gap,eigvec_cond,is_ep"
        assert len(lines) == 22
        flags = [line.split(",")[3] == "true" for line in lines[1:]]
        gammas = [float(line.split(",")[0]) for line in lines[1:]]
        flagged = [g for g, f in zip(gammas, flags) if f]
        assert flagged == [1.0]
        # exactly one contiguous run of true rows
        runs = 0
        prev = False
        for f in flags:
            if f and not prev:
                runs += 1
            prev = f
        assert runs == 1

    def test_safe_window_all_false(self, capsys):
        assert main(["scan", "--kappa", "1", "--gamma-min", "0.0", "--gamma-max", "0.4",
                     "--step", "0.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(line.endswith("false") for line in lines[1:])

    @pytest.mark.parametrize("flags,flagged", [
        (("--kappa", "1e200", "--gamma-min", "0", "--gamma-max", "1", "--step", "0.5"), []),
        (("--kappa", "1", "--gamma-min", "0", "--gamma-max", "1e200", "--step", "1e200"), []),
        (("--kappa", "1e-300", "--gamma-min", "0", "--gamma-max", "1e-300", "--step", "5e-301"),
         [1e-300]),
        (("--kappa", "1e300", "--gamma-min", "0", "--gamma-max", "1e300", "--step", "5e299"),
         [1e300]),
    ])
    def test_scale_beyond_squaring(self, flags, flagged):
        # the children fail on a numpy RuntimeWarning (conftest.py)
        proc = run_cli("scan", *flags)
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        assert [float(row[0]) for row in rows if row[3] == "true"] == flagged

    def test_closed_stdout_exits_as_a_broken_pipe(self):
        # 20001 rows fill the pipe before the reader closes it, as `| head -1` does; the exit
        # code is the one a shell reports for `seq 1 1000000 | head -1`
        argv = ["scan", "--kappa", "1", "--gamma-min", "-1", "--gamma-max", "1", "--step", "1e-4"]
        with subprocess.Popen([sys.executable, "-m", "quasiherm", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"gamma,min_gap,eigvec_cond,is_ep\n"
            proc.stdout.close()
            assert (proc.wait(timeout=TIMEOUT), proc.stderr.read()) == (141, b"")


# A command line that parses, per subcommand, and every option each one declares.
_BASE_ARGV = {
    "hermitize": ["hermitize", "h.json"],
    "model": ["model", "dimer"],
    "scan": ["scan", "--kappa", "1", "--gamma-min", "0", "--gamma-max", "1", "--step", "0.5"],
    "compat": ["compat", "h1.json", "h2.json"],
}
_OPTIONS = [
    (name, action.option_strings[-1], action.nargs == 0)
    for name, sub in build_parser()._subparsers._group_actions[0].choices.items()
    for action in sub._actions
    if action.option_strings and action.dest != "help"
]


class TestRepeatedFlags:
    @pytest.mark.parametrize("command,flag,bare", _OPTIONS, ids=[f"{c} {f}" for c, f, _ in _OPTIONS])
    def test_second_occurrence_refused(self, tmp_path, monkeypatch, capsys, command, flag, bare):
        # argparse would keep the last value and drop the first unseen
        monkeypatch.chdir(tmp_path)
        base = list(_BASE_ARGV[command])
        if flag in base:  # a required flag: the test gives it
            del base[base.index(flag):base.index(flag) + 2]
        once = [flag] if bare else [flag, "1"]
        build_parser().parse_args(base + once)  # one occurrence parses
        spellings = [once + once, once + [flag[:-1]] + once[1:]]
        if not bare:
            spellings.append([f"{flag}=1", *once])
        for repeated in spellings:
            assert main(base + repeated) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1] == (
                f"quasiherm {command}: error: argument {flag}: may be given only once"
            )
        assert list(tmp_path.iterdir()) == []


class TestNumericalFailure:
    def test_lapack_failure_exit(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError but is a numerical failure (5),
        # not malformed input (2).
        def broken(*_args, **_kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("quasiherm.cli.hermitize", broken)
        path = write_h(tmp_path, "h.json", DIMER_H)
        assert main(["hermitize", path]) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("LinAlgError: SVD did not converge")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cls", [
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.QuasihermError)
    ], ids=lambda cls: cls.__name__)
    def test_failure_class_exit_codes(self, tmp_path, capsys, monkeypatch, cls):
        # the exit-code table of README, one row per failure class
        expected = {"ComplexSpectrum": 3, "DefectiveMatrix": 4, "ModelDomainError": 6,
                    "EPRegion": 6, "InvalidCoupling": 6, "SingularDysonMap": 6}
        assert cls.exit_code == expected.get(cls.__name__, 5)

        def failing(*_args, **_kwargs):
            raise cls("measured 1 against 0")

        monkeypatch.setattr("quasiherm.cli.hermitize", failing)
        assert main(["hermitize", write_h(tmp_path, "h.json", DIMER_H)]) == cls.exit_code
        assert capsys.readouterr().err == f"{cls.__name__}: measured 1 against 0\n"


class TestImports:
    def test_commands_do_not_import_scipy(self, tmp_path):
        path = write_h(tmp_path, "h.json", DIMER_H)
        squared = write_h(tmp_path, "h2.json", DIMER_H @ DIMER_H)
        code = (
            "import contextlib, io, sys\n"
            "from quasiherm.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['hermitize', {path!r}]) == 0\n"
            "    assert main(['scan', '--kappa', '1', '--gamma-min', '0',"
            " '--gamma-max', '2', '--step', '0.25']) == 0\n"
            f"    assert main(['compat', {path!r}, {squared!r}]) == 0\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=TIMEOUT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestCompatCommand:
    def test_found(self, tmp_path, capsys):
        p1 = write_h(tmp_path, "h1.json", DIMER_H)
        assert main(["compat", p1, p1]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "Found"
        assert doc["solution_space_dim"] == 2
        assert doc["passed"] is True
        assert "metric" in doc
        assert doc["residuals"]["quasi_hermiticity_h1"] < 1e-10

    def test_residuals_are_the_library_result(self, tmp_path, capsys):
        h = random_real_spectrum(np.random.default_rng(4), 4)[0]
        p1 = write_h(tmp_path, "h1.json", h)
        p2 = write_h(tmp_path, "h2.json", 2.0 * h + h @ h @ h)
        assert main(["compat", p1, p2]) == 0
        printed = json.loads(capsys.readouterr().out)["residuals"]
        result = shared_metric(load_matrix_file(p1), load_matrix_file(p2))
        assert tuple(printed.values()) == result.residuals
        assert list(printed) == ["quasi_hermiticity_h1", "quasi_hermiticity_h2"]
        assert result.residuals[0] != result.residuals[1]

    def test_no_shared_metric(self, tmp_path, capsys):
        p1 = write_h(tmp_path, "h1.json", DIMER_H)
        p2 = write_h(tmp_path, "h2.json", [[1.0, 0.0], [0.0, -1.0]])
        assert main(["compat", p1, p2]) == 7
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "NoSharedMetric"
        assert doc["solution_space_dim"] == 0
        assert "metric" not in doc


# Every command line whose output argparse formats: each --help, and a usage
# line with each kind of refusal.
_ARGPARSE_OUTPUT = [
    ["--help"],
    *[[command, "--help"] for command in ("hermitize", "model", "scan", "compat")],
    ["compat", "h1.json"],
    ["model", "dimer", "--omega", "1", "--alpha", "0.5", "--omega=2"],
    ["frobnicate"],
    [],
]


class TestDeterminism:
    @pytest.mark.parametrize("argv", _ARGPARSE_OUTPUT, ids=lambda argv: " ".join(argv) or "none")
    def test_bytes_do_not_depend_on_terminal_width(self, monkeypatch, capsys, argv):
        outputs = {}
        for columns in ("80", "40", "200", None):
            if columns is None:
                monkeypatch.delenv("COLUMNS", raising=False)
            else:
                monkeypatch.setenv("COLUMNS", columns)
            outputs[columns] = (main(argv), *capsys.readouterr())
        assert outputs["80"][1] or outputs["80"][2]
        assert outputs == dict.fromkeys(outputs, outputs["80"])

    def test_unset_thread_count_prints_the_one_thread_bytes(self, tmp_path):
        # multithreaded zgeev at n = 256 changes the last digits with the thread
        # count, so these bytes match only if main pins BLAS to one thread
        h = conditioned_spectrum(np.random.default_rng(256), 256, 2.0)[0]
        path = write_h(tmp_path, "h.json", h)
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in blas}
        runs = [run_cli("hermitize", path, env=env)
                for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"})]
        assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout

    def test_controlled_failures_have_clean_stderr(self, tmp_path):
        path = write_h(tmp_path, "h.json", [[0.0, 1.0], [-1.0, 0.0]])
        proc = run_cli("hermitize", path)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "ComplexSpectrum" in proc.stderr

    @pytest.mark.parametrize("command,code,name", [("hermitize", 4, "DefectiveMatrix"),
                                                   ("compat", 8, "Inconclusive")])
    def test_jordan_block_one_line_diagnosis(self, tmp_path, command, code, name):
        # the eigenbasis bound of a Jordan block overflows; no numpy warning may follow
        path = write_h(tmp_path, "j.json", [[0.0, 1.0], [0.0, 0.0]])
        proc = run_cli(command, *[path] * (1 if command == "hermitize" else 2))
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{name}: "), proc.stderr


def readme_blocks(language):
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    return re.findall(rf"^```{language}\n(.*?)^```", readme.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


class TestReadme:
    def test_python_examples_run(self):
        blocks = readme_blocks("python")
        assert blocks
        for block in blocks:
            proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                                  timeout=TIMEOUT)
            assert proc.returncode == 0, proc.stderr

    def test_shell_examples_run(self, tmp_path):
        # the documented matrix file stands in for every file the commands name
        (matrix,) = readme_blocks("json")
        for name in ("H.json", "H1.json", "H2.json"):
            (tmp_path / name).write_text(matrix, encoding="utf-8")
        commands = [shlex.split(line, comments=True)[1:]
                    for block in readme_blocks("sh") for line in block.splitlines()
                    if line.startswith("quasiherm ")]
        assert commands
        for argv in commands:
            proc = run_cli(*argv, cwd=tmp_path)
            assert proc.returncode == 0, (argv, proc.stderr)
