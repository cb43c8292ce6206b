"""tools/bytecheck.py on this tree against itself: no golden bytes, since output
derived from LAPACK depends on its build and on the BLAS thread count."""

import os
import subprocess

import bytecheck


def test_commands_give_their_exit_codes_and_repeat_their_bytes():
    first, second = bytecheck.run([bytecheck.ROOT, bytecheck.ROOT])
    assert bytecheck.unexpected(first) == []
    differing = [(argv, a.differences(b))
                 for (argv, *_listed), a, b in zip(bytecheck.COMMANDS, first, second) if a != b]
    assert differing == []
    # the compat sweep is one of the entries: shared_metric answers alike in two processes
    sweep = first[bytecheck.COMMANDS.index(([bytecheck.SWEEP], 0, ""))]
    assert sweep.stdout.count(b"\n") == 2100


def test_each_tree_runs_its_own_sweep(tmp_path):
    tree = tmp_path / "tree"
    (tree / "tools").mkdir(parents=True)
    (tree / bytecheck.SWEEP).write_text('print("sweep of the other tree")\n')
    sweep = bytecheck._run_one(tree, [bytecheck.SWEEP], tmp_path / "work")
    assert (sweep.code, sweep.stdout, sweep.stderr) == (0, b"sweep of the other tree\n", b"")


def test_summary_counts_each_field(capsys, monkeypatch):
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["scan"], 0, ""), (["model", "dimer"], 0, "")])
    same = bytecheck.Outcome(0, b"out", b"", ())
    other = bytecheck.Outcome(0, b"out\n", b"", (("out/theta.json", b"{}"),))
    assert bytecheck.compare([same, same], [same, other], "against abc1234", 3) == 1
    assert capsys.readouterr().out.splitlines() == [
        "same  scan",
        "differ: stdout, files  model dimer",
        "  stdout (same lines; the bytes differ in line endings or the final newline)",
        "bytecheck: 1 of 2 commands differ against abc1234 "
        "(exit code 0, stdout 1, stderr 0, files 1), 3 unexpected outcomes",
    ]


def test_outcomes_that_break_their_rows_are_reported_and_counted(capsys, monkeypatch):
    monkeypatch.setattr(bytecheck, "COMMANDS", [
        (["model", "dimer"], 2, "error: x\n"),
        (["scan"], 2, None),
        (["model", "triangle", "--out-dir", "out"], 6, None),
        (["compat", "H.json", "sigma_z.json"], 7, ""),
        (["hermitize", "H.json"], 0, None),
    ])
    outcomes = [
        bytecheck.Outcome(2, b"", b"error: y\n", ()),
        bytecheck.Outcome(2, b"gamma\n", b"", ()),
        bytecheck.Outcome(6, b"", b"", (("out", None),)),
        bytecheck.Outcome(7, b"{}", b"", ()),  # stdout is not refused outside 2-6
        bytecheck.Outcome(5, b"", b"", ()),
    ]
    monkeypatch.setattr(bytecheck, "run", lambda trees: [outcomes, outcomes])
    assert bytecheck.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "stderr not the listed text: model dimer",
        "  stderr -error: x",
        "  stderr +error: y",
        "listed exit code 2 with stdout: scan",
        "listed exit code 6 with files: model triangle --out-dir out",
        "exit code 5, listed 0: hermitize H.json",
        "same  model dimer",
        "same  scan",
        "same  model triangle --out-dir out",
        "same  compat H.json sigma_z.json",
        "same  hermitize H.json",
        "bytecheck: 0 of 5 commands differ between two runs of the working tree "
        "(exit code 0, stdout 0, stderr 0, files 0), 4 unexpected outcomes",
    ]


def test_differing_streams_list_their_changed_lines(capsys, monkeypatch):
    assert bytecheck.SHOWN > 2 * 2100  # a sweep whose every line changed is listed whole
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["compat", "H1.json", "H2.json"], 0, "")])
    monkeypatch.setattr(bytecheck, "SHOWN", 3)
    base = bytecheck.Outcome(0, b"a\nb\nc\n", b"warning\nerror: x\n", ())
    ours = bytecheck.Outcome(5, b"a\nB\nc\nd\ne\n", b"error: y\n", ())
    assert bytecheck.compare([base], [ours], "against abc1234", 0) == 1
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
        "(exit code 1, stdout 1, stderr 1, files 0), 0 unexpected outcomes",
    ]


def test_stderr_names_no_tree_root(capsys, monkeypatch, tmp_path):
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
    monkeypatch.setattr(bytecheck, "COMMANDS", [(["compat", "H1.json", "H2.json"], 8, None)])
    assert bytecheck.compare([base], [changed], "against abc1234", 0) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differ: stderr  compat H1.json H2.json",
        "  stderr +error: x",
        "bytecheck: 1 of 1 commands differ against abc1234 "
        "(exit code 0, stdout 0, stderr 1, files 0), 0 unexpected outcomes",
    ]
