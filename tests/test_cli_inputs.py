"""Input files and ring specs the CLI refuses, a failed self-check, a
failed n-gon demonstration, and the work of one ``quotient`` run.

A relation, order or gamma file that is not UTF-8, or that names a
directory, is a usage error: one ``error:`` line on stderr and exit 2, and
so is a ring spec the parser does not know, whichever command reads it. A
self-check that fails inside the library is one ``error: self-check
failed:`` line and exit 3, never a traceback. A demonstration that finds
an ordering reproducing its target is one ``error:`` line and exit 1.
"""

from __future__ import annotations

import pytest

import mclain.factorization
import mclain.series
from helpers import counting
from mclain import McLainGroup, NgonReport, chain, format_relation
from mclain.cli import main

NOT_UTF8 = b"1 2\n\xff\xfe 4\n"


def argv_reading(kind, path, rel):
    """A command whose file of the given kind is path; the others are valid."""
    if kind == "relation":
        return ["series", str(path), "--upper"]
    if kind == "order":
        return ["factor", "--relation", str(rel), "--order", str(path), "x(1,2;1)"]
    return ["quotient", "--relation", str(rel), "--gamma", str(path), "x(1,2;1)"]


@pytest.mark.parametrize("kind", ["relation", "order", "gamma"])
@pytest.mark.parametrize("bad", ["not_utf8", "directory"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, kind, bad):
    rel = tmp_path / "rel.txt"
    rel.write_text(format_relation(chain(3)))
    path = tmp_path / "input"
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(NOT_UTF8)
    code = main(argv_reading(kind, path, rel))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("direction", ["--lower", "--upper"])
def test_series_refuses_an_unknown_ring_in_either_direction(tmp_path, capsys, direction):
    rel = tmp_path / "rel.txt"
    rel.write_text(format_relation(chain(3)))
    code = main(["series", str(rel), direction, "--ring", "bogus"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: unrecognized ring spec: 'bogus'\n"


def test_a_failed_self_check_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # The faulty descent of the upper series' normality check test: on
    # chain(3), node numbers 0, 1, 2, it adjoins (1,2) alone first.
    def wrong(*args):
        return [[(0, 1)], [(0, 2), (1, 2)]]

    monkeypatch.setattr(mclain.series, "_shed", wrong)
    rel = tmp_path / "rel.txt"
    rel.write_text(format_relation(chain(3)))
    code = main(["series", str(rel), "--upper"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: self-check failed: "
        "upper central series term failed the normality check\n"
    )
    assert "Traceback" not in captured.err


def test_a_failed_ngon_demonstration_exits_1_with_one_line(capsys, monkeypatch):
    real = mclain.factorization.demonstrate_ngon_obstruction

    def one_success(n, ring):
        return NgonReport(**{**vars(real(n, ring)), "successes": 1})

    monkeypatch.setattr(mclain.factorization, "demonstrate_ngon_obstruction", one_success)
    code = main(["demo-ngon", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: obstruction demonstration failed\n"


def test_quotient_projects_once_and_validates_each_group_once(
    tmp_path, capsys, monkeypatch
):
    rel, gamma = tmp_path / "rel.txt", tmp_path / "gamma.txt"
    rel.write_text(format_relation(chain(3)))
    gamma.write_text("1 3\n")
    calls = {"project": 0, "validate": 0}
    project = counting(calls, "project", mclain.factorization.quotient_project)
    monkeypatch.setattr(mclain.factorization, "quotient_project", project)
    validate = counting(calls, "validate", McLainGroup.__post_init__)
    monkeypatch.setattr(McLainGroup, "__post_init__", validate)
    argv = ["quotient", "--relation", str(rel), "--gamma", str(gamma)]
    assert main(argv + ["x(1,2;2)*x(2,3;3)*x(1,3;5)"]) == 0
    assert capsys.readouterr().out == (
        "projection: 1 + 2*e(1,2) + 3*e(2,3)\n"
        "representative: 1 + 2*e(1,2) + 6*e(1,3) + 3*e(2,3)\n"
    )
    # One ambient group and one quotient group over chain(3) less (1,3).
    assert calls == {"project": 1, "validate": 2}
