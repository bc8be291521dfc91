from __future__ import annotations

from pathlib import Path

import pytest

import dimatch.cli
from dimatch.cli import main
from dimatch.graph import cycle, save_graph


def write(tmp_path: Path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_yes_and_check_roundtrip(tmp_path, capsys):
    gpath = write(tmp_path, "c6.g", save_graph(cycle(6)))
    cert = str(tmp_path / "cert.txt")
    assert main(["solve", gpath, "--certificate", cert]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES")
    assert main(["check", gpath, cert]) == 0
    assert "OK" in capsys.readouterr().out


def test_solve_no(tmp_path, capsys):
    gpath = write(tmp_path, "c5.g", save_graph(cycle(5)))
    assert main(["solve", gpath]) == 1
    out = capsys.readouterr().out
    assert "NO" in out and "witness" in out


def test_solve_rejects_long_claw(tmp_path, capsys):
    text = "7 6\n1 2\n1 3\n1 4\n2 5\n3 6\n4 7\n"
    gpath = write(tmp_path, "claw.g", text)
    assert main(["solve", gpath]) == 2
    assert "<a1:2,a2:3,a3:4,b1:5,b2:6,b3:7,c:1>" in capsys.readouterr().err


def test_check_fails_on_bad_certificate(tmp_path, capsys):
    gpath = write(tmp_path, "c4.g", save_graph(cycle(4)))
    cert = write(tmp_path, "bad.cert", "1 B\n2 W\n3 B\n4 W\n")
    assert main(["check", gpath, cert]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_rejects_vertex_outside_graph(tmp_path, capsys):
    gpath = write(tmp_path, "p3.g", "3 2\n1 2\n2 3\n")
    cert = write(tmp_path, "extra.cert", "1 W\n2 B\n3 B\n99 B\n")
    assert main(["check", gpath, cert]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "99" in out


def test_check_names_line_of_non_integer_vertex(tmp_path, capsys):
    gpath = write(tmp_path, "p2.g", "2 1\n1 2\n")
    cert = write(tmp_path, "word.cert", "1 B\nx W\n")
    assert main(["check", gpath, cert]) == 2
    assert "line 2: vertex 'x' is not an integer" in capsys.readouterr().err


def test_check_rejects_vertex_listed_twice(tmp_path, capsys):
    gpath = write(tmp_path, "p2.g", "2 1\n1 2\n")
    cert = write(tmp_path, "twice.cert", "1 W\n1 B\n2 B\n")
    assert main(["check", gpath, cert]) == 2
    assert "line 2: vertex 1 listed twice" in capsys.readouterr().err


def test_solve_rejects_repeated_edge(tmp_path, capsys):
    gpath = write(tmp_path, "twice.g", "2 2\n1 2\n2 1\n")
    assert main(["solve", gpath]) == 2
    assert "line 3: edge 1 2 listed twice" in capsys.readouterr().err


def test_check_accepts_known_good(tmp_path, capsys):
    gpath = write(tmp_path, "c6.g", save_graph(cycle(6)))
    cert = write(tmp_path, "good.cert", "1 B\n2 B\n3 W\n4 B\n5 B\n6 W\n")
    assert main(["check", gpath, cert]) == 0


def test_gen_then_solve(tmp_path, capsys):
    gpath = str(tmp_path / "gen.g")
    assert main(["gen", "--model", "triangle_chain", "--n", "9", "--seed", "3", "--out", gpath]) == 0
    code = main(["solve", gpath])
    assert code in (0, 1)


def test_oracle_command(tmp_path, capsys):
    gpath = write(tmp_path, "c6.g", save_graph(cycle(6)))
    assert main(["oracle", gpath]) == 0
    gpath = write(tmp_path, "c4.g", save_graph(cycle(4)))
    assert main(["oracle", gpath]) == 1


def test_compare_command(capsys):
    assert main(["compare", "--count", "25", "--min-n", "7", "--max-n", "10", "--seed", "5"]) == 0
    assert "0 discrepancies" in capsys.readouterr().out


def test_compare_skips_seeds_the_generator_gives_up_on(capsys):
    assert main(["compare", "--count", "3", "--min-n", "20", "--max-n", "20", "--seed", "13"]) == 0
    out = capsys.readouterr().out
    assert "SKIPPED seed=14 n=20" in out
    assert "compared 2 instances, 0 discrepancies, 1 seeds skipped" in out


def test_compare_fails_when_every_seed_is_skipped(capsys):
    assert main(["compare", "--count", "2", "--min-n", "22", "--max-n", "22", "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert "2 seeds skipped" in captured.out
    assert "every seed" in captured.err


def test_compare_rejects_empty_size_range(capsys):
    assert main(["compare", "--count", "1", "--min-n", "10", "--max-n", "9"]) == 2
    assert "--min-n 10 exceeds --max-n 9" in capsys.readouterr().err


def test_compare_rejects_sizes_above_oracle_cap(capsys):
    assert main(["compare", "--count", "1", "--min-n", "30", "--max-n", "30"]) == 2
    assert "oracle cap" in capsys.readouterr().err


def test_compare_rejects_negative_arguments(capsys):
    assert main(["compare", "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert "--count must be nonnegative, not -3" in captured.err
    assert "compared" not in captured.out
    assert main(["compare", "--count", "1", "--min-n", "-2", "--max-n", "9"]) == 2
    assert "--min-n must be nonnegative, not -2" in capsys.readouterr().err


def test_gen_rejects_negative_order(capsys):
    assert main(["gen", "--n", "-5"]) == 2
    captured = capsys.readouterr()
    assert "--n must be nonnegative, not -5" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("family", ["cycle", "path", "complete", "star"])
def test_gen_known_family_has_the_requested_order(family, capsys):
    for n in range(5):
        assert main(["gen", "--model", "known", "--family", family, "--n", str(n)]) == 0
        assert int(capsys.readouterr().out.split()[0]) == n


def test_oracle_rejects_graph_above_cap(tmp_path, capsys):
    gpath = write(tmp_path, "c30.g", save_graph(cycle(30)))
    assert main(["oracle", gpath]) == 2
    assert "oracle cap" in capsys.readouterr().err


def test_saturate_command(tmp_path, capsys):
    gpath = write(tmp_path, "p3.g", "3 2\n1 2\n2 3\nU: 2\n")
    assert main(["saturate", gpath]) == 0
    out = capsys.readouterr().out.split()
    assert len(out) == 2
    gpath = write(tmp_path, "p3b.g", "3 2\n1 2\n2 3\nU: 1 3\n")
    assert main(["saturate", gpath]) == 1
    assert "infeasible" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path):
    gpath = write(tmp_path, "bad.g", "2 1\n1 1\n")
    assert main(["solve", gpath]) == 2
    assert main(["solve", str(tmp_path / "missing.g")]) == 2


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


def test_internal_fault_exit_code(tmp_path, monkeypatch, capsys):
    def broken_solve(g):
        raise ValueError("solver fault")

    monkeypatch.setattr(dimatch.cli, "solve", broken_solve)
    gpath = write(tmp_path, "c6.g", save_graph(cycle(6)))
    assert main(["solve", gpath]) == 3
    assert "solver fault" in capsys.readouterr().err
    gpath = write(tmp_path, "bad.g", "2 1\n1 x\n")
    assert main(["solve", gpath]) == 2


def test_saturate_rejects_vertex_outside_graph(tmp_path):
    gpath = write(tmp_path, "p3.g", "3 2\n1 2\n2 3\nU: 7\n")
    assert main(["saturate", gpath]) == 2
    gpath = write(tmp_path, "p3x.g", "3 2\n1 2\n2 3\nU: x\n")
    assert main(["saturate", gpath]) == 2
