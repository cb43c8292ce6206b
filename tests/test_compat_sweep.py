"""tools/compat_sweep.py: a short list, printed the same way twice."""

import compat_sweep


def test_lines_repeat_and_sharing_pairs_are_found_below_cond_1e3(capsys):
    compat_sweep.main(["--seed", "18", "--count", "25"])
    first = capsys.readouterr().out.splitlines()
    compat_sweep.main(["--seed", "18", "--count", "25"])
    assert capsys.readouterr().out.splitlines() == first
    rows = [line.split() for line in first]
    assert [int(row[0]) for row in rows] == list(range(35))
    assert {len(row) for row in rows} == {8}
    assert {row[1] for row in rows[25:]} == {"M-partner", "stranger"}
    tame = [row for row in rows if row[1] not in compat_sweep.NON_SHARING and float(row[3]) < 1e3]
    assert tame and all(row[4] == "Found" and row[7] == "none" for row in tame)
    # a partner S S† M shares exactly one metric with h, an unrelated frame's none
    unique = [row for row in rows if row[1] == "M-partner" and float(row[3]) < 1e6]
    assert unique and all(row[4:6] == ["Found", "1"] and row[7] == "none" for row in unique)
    assert all(row[4] == "NoSharedMetric" for row in rows if row[1] in compat_sweep.NON_SHARING)
