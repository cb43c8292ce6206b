"""tools/bytecheck.py on this tree against itself: no golden bytes, since output
derived from LAPACK depends on its build and on the BLAS thread count."""

import importlib.util
import pathlib
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


def test_summary_counts_each_field(bytecheck, capsys, monkeypatch):
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["scan"], 0), (["model", "dimer"], 0)])
    same = bytecheck.Outcome(0, b"out", b"", ())
    other = bytecheck.Outcome(0, b"out\n", b"", (("out/theta.json", b"{}"),))
    assert bytecheck.compare([same, same], [same, other], "against abc1234") == 1
    assert capsys.readouterr().out.splitlines() == [
        "same  scan",
        "differ: stdout, files  model dimer",
        "bytecheck: 1 of 2 commands differ against abc1234 "
        "(exit code 0, stdout 1, stderr 0, files 1)",
    ]
