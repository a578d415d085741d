"""Command line interface: output bytes, exit codes, error routing."""

from __future__ import annotations

import subprocess
import sys

from mclain import chain, format_relation, ngon
from mclain.cli import main

CHAIN3 = format_relation(chain(3))
CHAIN4 = format_relation(chain(4))
NGON4 = format_relation(ngon(4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_valid(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (0, "valid\n", "")


def test_check_reports_reflexive_pairs(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text("1 1\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == "reflexive pair (1,1)\n"


def test_check_reports_exchange_violations(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text("1 2\n2 3\n3 4\n1 4\n1 3\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert out == (
        "exchange violation at quadruple (1,2,3,4): (1,3) present, (2,4) absent\n"
    )


def test_series_lower(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN4)
    code, out, err = run(capsys, "series", str(path), "--lower")
    assert code == 0
    assert out == (
        "gamma 1: {(1,2),(1,3),(1,4),(2,3),(2,4),(3,4)} rank 3\n"
        "gamma 2: {(1,3),(1,4),(2,4)} rank 2\n"
        "gamma 3: {(1,4)} rank 1\n"
        "gamma 4: {}\n"
    )


def test_series_upper(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(capsys, "series", str(path), "--upper")
    assert code == 0
    assert out == (
        "zeta 0: {}\n"
        "zeta 1: {(1,3)}\n"
        "zeta 2: {(1,2),(1,3),(2,3)}\n"
    )


def test_series_of_a_relation_with_no_pairs(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text("# nodes without pairs\nnode 1\nnode 2\n")
    code, out, err = run(capsys, "series", str(path), "--upper")
    assert (code, out, err) == (0, "zeta 0: {}\n", "")
    code, out, err = run(capsys, "series", str(path), "--lower")
    assert (code, out, err) == (0, "gamma 1: {}\n", "")


def test_series_requires_a_direction(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(capsys, "series", str(path))
    assert code == 2


def test_series_rejects_invalid_relation(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text("1 1\n")
    code, out, err = run(capsys, "series", str(path), "--lower")
    assert code == 1
    assert err.startswith("error:")


def test_eval_frozen(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(
        capsys,
        "eval",
        "--relation",
        str(path),
        "--ring",
        "Z",
        "comm(x(1,2;2),x(2,3;3))",
    )
    assert (code, out) == (0, "1 + 6*e(1,3)\n")


def test_eval_respects_the_ring(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(
        capsys,
        "eval",
        "--relation",
        str(path),
        "--ring",
        "Z/5",
        "comm(x(1,2;2),x(2,3;3))",
    )
    assert (code, out) == (0, "1 + 1*e(1,3)\n")


def test_eval_matrix_ring(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(
        capsys,
        "eval",
        "--relation",
        str(path),
        "--ring",
        "M2(Z/3)",
        "x(1,2;[0,1;0,0])",
    )
    assert (code, out) == (0, "1 + [0,1;0,0]*e(1,2)\n")


def test_eval_expression_parse_error_is_usage(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(capsys, "eval", "--relation", str(path), "y(1,2;1)")
    assert code == 2
    assert err.startswith("error:")


def test_eval_pair_outside_relation_is_domain_error(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(capsys, "eval", "--relation", str(path), "x(1,5;1)")
    assert code == 1
    assert "not in the relation" in err


def test_eval_bad_ring_spec_is_usage(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(
        capsys, "eval", "--relation", str(path), "--ring", "Q", "x(1,2;1)"
    )
    assert code == 2
    assert "ring spec" in err


def test_eval_missing_relation_file(tmp_path, capsys):
    code, out, err = run(
        capsys, "eval", "--relation", str(tmp_path / "absent.txt"), "x(1,2;1)"
    )
    assert code == 2
    assert err.startswith("error:")


def test_factor_flat_word(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(
        capsys, "factor", "--relation", str(path), "x(1,2;1)*x(2,3;1)"
    )
    assert (code, out) == (0, "x(1,2;1)*x(2,3;1)\n")


def test_factor_identity(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(CHAIN3)
    code, out, err = run(capsys, "factor", "--relation", str(path), "1")
    assert (code, out) == (0, "1\n")


def test_factor_with_order_file(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text(CHAIN3)
    order = tmp_path / "order.txt"
    order.write_text("# positions\n1 2\n2 3\n1 3\n")
    # the product of the two generators already carries the composite, so
    # the position for (1,3) solves to zero
    code, out, err = run(
        capsys,
        "factor",
        "--relation",
        str(rel),
        "--order",
        str(order),
        "x(1,2;1)*x(2,3;1)",
    )
    assert code == 0
    assert out == "(1,2) ; 1\n(2,3) ; 1\n(1,3) ; 0\n"
    # an element without the composite solves the last position to -1
    code, out, err = run(
        capsys,
        "factor",
        "--relation",
        str(rel),
        "--order",
        str(order),
        "x(1,2;1)*x(2,3;1)*x(1,3;-1)",
    )
    assert code == 0
    assert out == "(1,2) ; 1\n(2,3) ; 1\n(1,3) ; -1\n"


def test_factor_with_non_closed_order_fails(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text(CHAIN3)
    order = tmp_path / "order.txt"
    order.write_text("1 2\n2 3\n")
    code, out, err = run(
        capsys,
        "factor",
        "--relation",
        str(rel),
        "--order",
        str(order),
        "x(1,2;1)",
    )
    assert code == 1
    assert err == "error: order needs a closed subset\n"


def test_factor_with_order_not_covering_support_fails(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text(CHAIN3)
    order = tmp_path / "order.txt"
    order.write_text("1 3\n")
    code, out, err = run(
        capsys,
        "factor",
        "--relation",
        str(rel),
        "--order",
        str(order),
        "x(1,2;1)",
    )
    assert code == 1
    assert "does not cover" in err


def test_quotient_frozen(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text(CHAIN3)
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("1 3\n")
    code, out, err = run(
        capsys,
        "quotient",
        "--relation",
        str(rel),
        "--gamma",
        str(gamma),
        "x(1,2;2)*x(2,3;3)*x(1,3;5)",
    )
    assert code == 0
    assert out == (
        "projection: 1 + 2*e(1,2) + 3*e(2,3)\n"
        "representative: 1 + 2*e(1,2) + 6*e(1,3) + 3*e(2,3)\n"
    )


def test_quotient_rejects_non_normal_gamma(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text(CHAIN3)
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("1 2\n")
    code, out, err = run(
        capsys, "quotient", "--relation", str(rel), "--gamma", str(gamma), "1"
    )
    assert code == 1
    assert "normal" in err


def test_quotient_rejects_gamma_outside_relation(tmp_path, capsys):
    rel = tmp_path / "rel.txt"
    rel.write_text(CHAIN3)
    gamma = tmp_path / "gamma.txt"
    gamma.write_text("3 1\n")
    code, out, err = run(
        capsys, "quotient", "--relation", str(rel), "--gamma", str(gamma), "1"
    )
    assert code == 1
    assert "not in the relation" in err


def test_demo_ngon_frozen(capsys):
    code, out, err = run(capsys, "demo-ngon", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "24 orderings checked, 0 succeed"
    assert lines[1].startswith("mixed factorization: x(")
    assert len(lines) == 2


def test_demo_ngon_range(capsys):
    code, out, err = run(capsys, "demo-ngon", "3")
    assert code == 2
    assert "must be 4, 5, or 6" in err
    code, out, err = run(capsys, "demo-ngon", "7")
    assert code == 2


def test_demo_ngon_bad_ring(capsys):
    code, out, err = run(capsys, "demo-ngon", "4", "--ring", "Q")
    assert code == 2


def test_relation_parse_error_carries_line_number(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text("1 2\nbogus line here\n")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 2:" in err


def test_no_arguments_is_usage(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(tmp_path, capsys):
    path = tmp_path / "rel.txt"
    path.write_text(NGON4)
    first = run(capsys, "series", str(path), "--lower", "--ring", "Z/2")
    second = run(capsys, "series", str(path), "--lower", "--ring", "Z/2")
    assert first == second
    assert first[0] == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mclain", "demo-ngon", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "24 orderings checked, 0 succeed"
