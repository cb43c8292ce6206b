"""tools/compat_sweep.py: a short list, printed the same way twice."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compat_sweep.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compat_sweep", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lines_repeat_and_sharing_pairs_are_found_below_cond_1e3(capsys):
    tool = _tool()
    tool.main(["--seed", "18", "--count", "25"])
    first = capsys.readouterr().out.splitlines()
    tool.main(["--seed", "18", "--count", "25"])
    assert capsys.readouterr().out.splitlines() == first
    rows = [line.split() for line in first]
    assert [int(row[0]) for row in rows] == list(range(25))
    assert {len(row) for row in rows} == {8}
    tame = [row for row in rows if row[1] != "independent" and float(row[3]) < 1e3]
    assert tame and all(row[4] == "Found" and row[7] == "none" for row in tame)
    assert all(row[4] == "NoSharedMetric" for row in rows if row[1] == "independent")
