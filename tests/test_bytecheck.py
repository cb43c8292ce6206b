"""tools/bytecheck.py on this tree against itself: no golden bytes, since output
derived from LAPACK depends on its build and on the BLAS thread count."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"


@pytest.fixture(scope="module")
def bytecheck():
    spec = importlib.util.spec_from_file_location("bytecheck", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_commands_give_their_exit_codes_and_repeat_their_bytes(bytecheck):
    first, second = bytecheck.run([bytecheck.ROOT, bytecheck.ROOT])
    assert bytecheck.unexpected_exits(first) == []
    differing = [(argv, a.differences(b))
                 for (argv, _code), a, b in zip(bytecheck.COMMANDS, first, second) if a != b]
    assert differing == []
    # the compat sweep is one of the entries: shared_metric answers alike in two processes
    sweep = first[bytecheck.COMMANDS.index(([bytecheck.SWEEP], 0))]
    assert sweep.stdout.count(b"\n") == 1500


def test_summary_counts_each_field(bytecheck, capsys, monkeypatch):
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["scan"], 0), (["model", "dimer"], 0)])
    same = bytecheck.Outcome(0, b"out", b"", ())
    other = bytecheck.Outcome(0, b"out\n", b"", (("out/theta.json", b"{}"),))
    assert bytecheck.compare([same, same], [same, other], "against abc1234") == 1
    assert capsys.readouterr().out.splitlines() == [
        "same  scan",
        "differ: stdout, files  model dimer",
        "  stdout (same lines; the bytes differ in line endings or the final newline)",
        "bytecheck: 1 of 2 commands differ against abc1234 "
        "(exit code 0, stdout 1, stderr 0, files 1)",
    ]


def test_differing_streams_list_their_changed_lines(bytecheck, capsys, monkeypatch):
    assert bytecheck.SHOWN > 2 * 1500  # a sweep whose every line changed is listed whole
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["compat", "H1.json", "H2.json"], 0)])
    monkeypatch.setattr(bytecheck, "SHOWN", 3)
    base = bytecheck.Outcome(0, b"a\nb\nc\n", b"warning\nerror: x\n", ())
    ours = bytecheck.Outcome(5, b"a\nB\nc\nd\ne\n", b"error: y\n", ())
    assert bytecheck.compare([base], [ours], "against abc1234") == 1
    assert capsys.readouterr().out.splitlines() == [
        "differ: exit code, stdout, stderr  compat H1.json H2.json",
        "  stdout -b",
        "  stdout +B",
        "  stdout +d",
        "  stdout: 1 more changed lines",
        "  stderr -warning",
        "  stderr -error: x",
        "  stderr +error: y",
        "bytecheck: 1 of 1 commands differ against abc1234 "
        "(exit code 1, stdout 1, stderr 1, files 0)",
    ]


def test_stderr_names_no_tree_root(bytecheck, capsys, monkeypatch, tmp_path):
    # a numpy warning names its source file under the tree whose src/ the child imports
    def run_in(tree, workdir, extra=b""):
        def fake_run(command, cwd, env, **kwargs):
            src = os.fsencode(env["PYTHONPATH"].split(os.pathsep)[0])
            warning = src + b"/quasiherm/observables.py:122: RuntimeWarning: overflow\n"
            return subprocess.CompletedProcess(command, 8, b"Inconclusive\n", warning + extra)

        monkeypatch.setattr(bytecheck.subprocess, "run", fake_run)
        return bytecheck._run_one(tree, ["compat", "H1.json", "H2.json"], tmp_path / workdir)

    base = run_in(tmp_path / "bytecheck-rev" / "tree", "base")
    assert base.stderr == b"<tree>/src/quasiherm/observables.py:122: RuntimeWarning: overflow\n"
    assert run_in(bytecheck.ROOT, "same") == base
    changed = run_in(bytecheck.ROOT, "changed", b"error: x\n")
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["compat", "H1.json", "H2.json"], 8)])
    assert bytecheck.compare([base], [changed], "against abc1234") == 1
    assert capsys.readouterr().out.splitlines() == [
        "differ: stderr  compat H1.json H2.json",
        "  stderr +error: x",
        "bytecheck: 1 of 1 commands differ against abc1234 "
        "(exit code 0, stdout 0, stderr 1, files 0)",
    ]
