"""``repro check``: formats, exit codes, .py extraction, placement flags."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import extract_programs, looks_like_program, main
from repro.cli import main as repro_main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.dl"
    path.write_text("p(X,Y) <- q(X).\n")
    return path


@pytest.fixture
def warn_file(tmp_path):
    path = tmp_path / "warn.dl"
    path.write_text("r(X) <- s(X), !t(X,Y).\ns(1). t(1,2).\n")
    return path


def test_error_exits_one_with_caret(bad_file):
    code, text = run([str(bad_file)])
    assert code == 1
    assert f"{bad_file}:1:1: error [R001]" in text
    assert "  ^" in text  # caret excerpt under the offending line
    assert "1 error(s)" in text


def test_warnings_pass_unless_strict(warn_file):
    code, _ = run([str(warn_file)])
    assert code == 0
    code, text = run(["--strict", str(warn_file)])
    assert code == 1
    assert "[R002]" in text


def test_json_format_is_schema_versioned(bad_file):
    code, text = run(["--format", "json", str(bad_file)])
    assert code == 1
    report = json.loads(text)
    assert report["schema"] == "repro-check/v1"
    assert report["ok"] is False
    assert report["summary"]["errors"] == 1
    [diag] = [d for d in report["diagnostics"] if d["code"] == "R001"]
    assert diag["file"] == str(bad_file)
    assert diag["line"] == 1 and diag["column"] == 1


def test_python_file_extraction_shifts_spans(tmp_path):
    host = tmp_path / "host.py"
    host.write_text(
        '"""doc"""\n'
        "POLICY = \"\"\"\n"
        "p(X,Y) <- q(X).\n"
        "\"\"\"\n"
        "def setup(ws):\n"
        "    ws.load('r(1,2).')\n"
    )
    code, text = run([str(host)])
    assert code == 1
    # the program's line 2 lands on the file's line 3
    assert f"{host}:3:1: error [R001]" in text


def test_extract_programs_heuristics():
    source = (
        "RULES = 'p(X) <- q(X).'\n"
        "lowercase = 'ignored(X) <- y(X).'\n"
        "note = 'not a program'\n"
        "ws.load('f(1).')\n"
        "ws.assert_fact('says', ('a', 'b'))\n"
    )
    programs = extract_programs(source)
    assert [(label, text) for label, _, text in programs] == [
        ("RULES", "p(X) <- q(X)."),
        ("load", "f(1)."),
    ]
    assert looks_like_program("access(P) :- good(P).")
    assert not looks_like_program("alice")
    assert not looks_like_program("ends with period.")


def test_paper_listings_flag_is_strict_clean():
    code, text = run(["--strict", "--paper-listings"])
    assert code == 0
    assert "0 error(s), 0 warning(s)" in text


def test_usage_errors_exit_two(tmp_path):
    assert run([])[0] == 2                      # no input
    assert run(["missing.dl"])[0] == 2          # no such file
    assert run(["--partition", "a=0"])[0] == 2  # placement without --nodes
    bad_pass = tmp_path / "p.dl"
    bad_pass.write_text("p(1).")
    assert run(["--passes", "vibes", str(bad_pass)])[0] == 2


def test_placement_dry_run_flags(tmp_path):
    program = tmp_path / "join.dl"
    program.write_text("j(X,Y) <- a(X,K), b(Y,Z).\n")
    code, text = run(["--nodes", "2", "--partition", "a=0",
                      "--partition", "b", str(program)])
    assert code == 1
    assert "[R501]" in text
    # replicating one side makes the join co-locatable
    code, _ = run(["--nodes", "2", "--partition", "a=0",
                   "--replicate", "b", str(program)])
    assert code == 0


def test_placement_dry_run_rejects_a_non_co_located_join(tmp_path):
    """The dry-run is the same ``analyze_join_compatibility`` that
    ``Cluster.load`` enforces: the recursive reach rule joins on Y, so
    reach must be keyed on column 1 to meet edge's column 0 (R501 names
    the rule otherwise)."""
    program = tmp_path / "reach.dl"
    program.write_text(
        "reach(X,Y) <- edge(X,Y).\nreach(X,Z) <- reach(X,Y), edge(Y,Z).\n")
    code, text = run(["--nodes", "3", "--partition", "edge=0",
                      "--partition", "reach=0", str(program)])
    assert code == 1
    assert "R501" in text
    code, _ = run(["--nodes", "3", "--partition", "edge=0",
                   "--partition", "reach=1", str(program)])
    assert code == 0


def test_json_report_over_the_shipped_programs_is_schema_versioned():
    """``--format json`` over the paper listings and every example is one
    well-formed report of the current schema, with no error."""
    examples = sorted(str(path) for path in EXAMPLES.glob("*.py"))
    assert examples
    _, text = run(["--format", "json", "--paper-listings", *examples])
    report = json.loads(text)
    assert report["schema"] == "repro-check/v1", report["schema"]
    assert report["summary"]["errors"] == 0, report["summary"]


def test_dispatch_from_top_level_cli(bad_file, capsys):
    assert repro_main(["check", str(bad_file)]) == 1
    assert "[R001]" in capsys.readouterr().out


def test_pragma_suppression_in_program_and_py_levels(tmp_path):
    path = tmp_path / "emb.py"
    path.write_text(
        'PROGRAM = """\n'
        'z(X) <- w(X,Y), v(X). %# check: ignore[R302]\n'
        'w(1,2). v(1).\n'
        '"""\n'
        'OTHER = "a(X) <- b(X,Y), c(X).\\nb(1,2). c(1)."'
        '  # check: ignore[R302]\n')
    code, text = run(["--format", "json", str(path)])
    report = json.loads(text)
    assert code == 0
    assert report["summary"]["suppressed"] == 2
    assert [d["code"] for d in report["diagnostics"]] == []
    # both levels land in the suppressed list, relocated to the .py file
    assert [(d["code"], d["line"]) for d in report["suppressed"]] == [
        ("R302", 2), ("R302", 5)]


def test_pragma_must_name_the_right_code(tmp_path):
    path = tmp_path / "wrong.dl"
    path.write_text("p(X) <- q(X,Y), r(X). %# check: ignore[R301]\n"
                    "q(1,2). r(1).\n")
    code, text = run(["--format", "json", str(path)])
    report = json.loads(text)
    assert report["summary"]["suppressed"] == 0
    assert "R302" in [d["code"] for d in report["diagnostics"]]


def test_suppressed_count_in_text_rendering(tmp_path):
    path = tmp_path / "sup.dl"
    path.write_text("p(X) <- q(X,Y), r(X). %# check: ignore[]\n"
                    "q(1,2). r(1).\n")
    code, text = run([str(path)])
    assert code == 0
    assert "1 suppressed" in text


def test_python_report_is_sorted_regardless_of_extraction_order(tmp_path):
    # the later call site embeds a program whose finding lands *above*
    # the ALL_CAPS assignment's finding; the report must still be in
    # (file, line, col, code) order.
    path = tmp_path / "order.py"
    path.write_text(
        'LATE = "p(X) <- q(X,Y), r(X).\\nq(1,2). r(1)."\n'
        '\n'
        'def setup(ws):\n'
        '    ws.load("a(X) <- b(X,Y), c(X).\\nb(1,2). c(1).")\n')
    code, text = run(["--format", "json", str(path)])
    report = json.loads(text)
    lines = [d["line"] for d in report["diagnostics"]]
    assert lines == sorted(lines)
    assert len(lines) >= 2
