import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hurwitz.cli import run
from test_counts import oracle_cap_7  # noqa: F401  (a fixture)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_all_methods(capsys):
    code, out, _ = invoke(capsys, "compute", "--kind", "monotone", "--r", "2",
                          "--g", "0", "--mu", "1,3", "--method", "all")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert {rec["method"] for rec in data["results"]} == {"character", "fock", "oracle"}
    assert all(rec["value"] == "2" for rec in data["results"])


def test_compute_all_past_the_oracle_cap(capsys):
    args = ("compute", "--kind", "monotone", "--r", "1", "--g", "0", "--mu", "4,3",
            "--method", "all")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert data["oracle"] == "skipped"
    assert [rec["method"] for rec in data["results"]] == ["character", "fock"]
    _, out, _ = invoke(capsys, "--format", "text", *args)
    assert "# oracle = skipped" in out.splitlines()
    # within the cap the oracle runs and nothing is marked
    _, out, _ = invoke(capsys, "compute", "--kind", "monotone", "--r", "1", "--g", "0",
                       "--mu", "3,3", "--method", "all")
    assert "oracle" not in json.loads(out)


def test_compute_asks_the_oracle_for_its_own_cap(capsys, oracle_cap_7):
    # compute reads the cap the oracle raises, not a copy of its own
    base = ("compute", "--kind", "monotone", "--r", "1", "--g", "0", "--mu", "4,3")
    code, out, _ = invoke(capsys, *base, "--method", "oracle")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == "100"
    code, out, _ = invoke(capsys, *base, "--method", "all")
    assert code == 0
    data = json.loads(out)
    assert "oracle" not in data
    assert [(rec["method"], rec["value"]) for rec in data["results"]] == [
        ("character", "100"), ("fock", "100"), ("oracle", "100")]


def test_structural_zeros_past_the_oracle_cap(capsys):
    # r = 2 does not divide |(4, 3)| = 7: every route answers 0, the oracle too
    code, out, _ = invoke(capsys, "compute", "--kind", "usual", "--r", "2", "--g", "0",
                          "--mu", "4,3", "--method", "all")
    assert code == 0
    data = json.loads(out)
    assert "oracle" not in data
    assert [rec["method"] for rec in data["results"]] == ["character", "fock", "oracle"]
    assert {(rec["value"], rec["note"]) for rec in data["results"]} == {
        ("0", "b = 2g-2+n+d/r = 7/2 is not an integer")}
    for flag in ((), ("--disconnected",)):
        code, out, _ = invoke(capsys, "series", "--kind", "usual", "--r", "2", "--mu", "4,3",
                              "--order", "5", "--method", "oracle", *flag)
        assert code == 0
        assert [row["value"] for row in json.loads(out)["results"]] == ["0"] * 6


def test_compute_single_value(capsys):
    code, out, _ = invoke(capsys, "compute", "--kind", "monotone", "--r", "1",
                          "--g", "0", "--mu", "1")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["value"] == "1"


def test_compute_flags_vanishing(capsys):
    code, out, _ = invoke(capsys, "compute", "--kind", "usual", "--r", "2",
                          "--g", "0", "--mu", "3")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["value"] == "0"
    assert "note" in data["results"][0]


def test_series_command(capsys):
    code, out, _ = invoke(capsys, "series", "--kind", "usual", "--r", "1",
                          "--mu", "2", "--order", "3", "--disconnected")
    assert code == 0
    data = json.loads(out)
    values = {row["b"]: row["value"] for row in data["results"]}
    assert values[1] == "1/2"


def test_unstable_check(capsys):
    code, out, _ = invoke(capsys, "unstable-check", "--kind", "monotone",
                          "--r", "2", "--order", "12")
    assert code == 0
    assert json.loads(out)["status"] == "PASS"
    code, out, _ = invoke(capsys, "unstable-check", "--kind", "strict",
                          "--r", "3", "--order", "10")
    assert code == 0


def test_verify_quasipoly(capsys):
    code, out, _ = invoke(capsys, "verify-quasipoly", "--kind", "strict",
                          "--r", "2", "--g", "0", "--n", "3", "--eta", "1,1,0")
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["observed_degree"] <= 0


def test_xi_command(capsys):
    code, out, _ = invoke(capsys, "xi", "--kind", "monotone", "--r", "2",
                          "--i", "1", "--order", "8")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    first = data["results"][0]
    assert first["exponent"] == 1 and first["value"] == "1"


def test_cross_validate_small(capsys):
    code, out, _ = invoke(capsys, "cross-validate", "--r", "2", "--max-d", "4",
                          "--max-b", "3")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    assert all(rec["status"] == "PASS" for rec in data["results"])


def test_cross_validate_past_the_oracle_cap(capsys):
    code, out, _ = invoke(capsys, "cross-validate", "--kind", "monotone", "--r", "4",
                          "--max-d", "8", "--max-b", "5")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "PASS"
    for rec in data["results"]:
        assert rec["status"] == "PASS"
        assert ("oracle" in rec) == (sum(rec["mu"]) > 6)
        assert rec.get("oracle", "skipped") == "skipped"
    assert {sum(rec["mu"]) for rec in data["results"]} == {4, 8}


def test_deterministic_output(capsys):
    args = ("compute", "--kind", "strict", "--r", "2", "--g", "1", "--mu", "2,4",
            "--method", "all")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_invalid_flags_exit_nonzero(capsys):
    code, _, err = invoke(capsys, "compute", "--kind", "monotone", "--r", "2",
                          "--g", "0", "--mu", "0")
    assert code == 2
    assert "error" in err


# bad inputs whose error message must name the flag or value at fault
QUASIPOLY = ("verify-quasipoly", "--kind", "monotone", "--r", "2")
FLAG_AT_FAULT = {
    QUASIPOLY + ("--g", "0", "--n", "-1"): "--n",
    QUASIPOLY + ("--g", "1", "--n", "1", "--eta", "x"): "--eta",
    QUASIPOLY + ("--g", "1", "--n", "2", "--eta", "0"): "--eta",
    QUASIPOLY + ("--g", "1", "--n", "1", "--eta", "0", "--grid-base", "0"): "--grid-base",
    ("xi", "--kind", "monotone", "--i", "4", "--r", "3", "--order", "5"): "--i",
    ("unstable-check", "--kind", "monotone", "--order", "1", "--r", "1"): "--order",
    ("compute", "--kind", "monotone", "--r", "1", "--g", "0", "--mu", "4,3",
     "--method", "oracle"): "capped at degree 6",
    ("series", "--kind", "monotone", "--r", "1", "--mu", "4,3", "--order", "7",
     "--method", "oracle"): "capped at degree 6",
    # strict exponents start at 1, so it is the order that leaves none
    ("xi", "--kind", "strict", "--r", "1", "--i", "0", "--order", "0"): "--order 0 leaves",
    ("series", "--kind", "monotone", "--r", "2", "--mu", "0,2", "--order", "2"):
        "--mu must be a nonempty profile of positive integers",
    # g < 0 on a grid of zero samples (n = 7) and on one with none (n = 5)
    ("verify-quasipoly", "--kind", "monotone", "--r", "1", "--g", "-1", "--n", "7",
     "--eta", "0,0,0,0,0,0,0"): "error: g must be nonnegative, got -1\n",
    ("verify-quasipoly", "--kind", "monotone", "--r", "1", "--g", "-1", "--n", "5",
     "--eta", "0,0,0,0,0"): "error: g must be nonnegative, got -1\n",
}


@pytest.mark.parametrize("argv", [
    ("compute", "--kind", "monotone", "--r", "0", "--g", "0", "--mu", "2"),
    ("compute", "--kind", "monotone", "--r", "-2", "--g", "0", "--mu", "2"),
    ("cross-validate", "--r", "0"),
    ("cross-validate", "--r", "2", "--max-d", "-1"),
    ("cross-validate", "--r", "2", "--max-b", "-1"),
    ("series", "--kind", "monotone", "--r", "2", "--mu", "2", "--order", "-1"),
    ("series", "--kind", "monotone", "--r", "0", "--mu", "2", "--order", "2"),
    ("verify-quasipoly", "--kind", "monotone", "--r", "0", "--g", "1", "--n", "1"),
    ("xi", "--kind", "monotone", "--r", "2", "--i", "1", "--order", "-1"),
    ("unstable-check", "--kind", "monotone", "--r", "2", "--order", "-3"),
    ("compute", "--kind", "monotone", "--r", "2", "--g", "0", "--mu", "2,-2"),
    ("verify-quasipoly", "--kind", "monotone", "--r", "2", "--g", "1", "--n", "1",
     "--holdouts", "0"),
    ("verify-quasipoly", "--kind", "monotone", "--r", "2", "--g", "1", "--n", "1",
     "--holdouts", "-1"),
    ("xi", "--kind", "monotone", "--r", "2", "--i", "1", "--order", "3", "--derivative", "5"),
    ("xi", "--kind", "strict", "--r", "2", "--i", "1", "--order", "3", "--derivative", "3"),
    ("xi", "--kind", "monotone", "--r", "2", "--i", "1", "--order", "3", "--derivative", "-1"),
    # no exponent up to the order has a nonzero coefficient in the class i mod r
    ("xi", "--kind", "monotone", "--r", "4", "--i", "3", "--order", "2"),
    # nothing to check: no degree up to --max-d is divisible by r
    ("cross-validate", "--r", "5", "--max-d", "4"),
    ("cross-validate", "--r", "1", "--max-d", "0"),
    # a residue class with sum(eta) not divisible by r
    ("verify-quasipoly", "--kind", "monotone", "--r", "2", "--g", "0", "--n", "3",
     "--eta", "1,0,0"),
    *FLAG_AT_FAULT,
])
def test_bad_input_is_a_usage_error(capsys, argv):
    try:
        code = run(list(argv))
    except SystemExit as exc:  # argparse rejects the flag before any command runs
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert "error: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    if argv in FLAG_AT_FAULT:
        error = captured.err[captured.err.index("error: "):]
        assert FLAG_AT_FAULT[argv] in error, error


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ("compute", "--kind", "monotone", "--r", "1", "--g", "0", "--mu", HUGE),
    ("compute", "--kind", "monotone", "--r", "1", "--g", HUGE, "--mu", "2"),
    ("series", "--kind", "monotone", "--r", "1", "--mu", "2", "--order", HUGE),
    ("verify-quasipoly", "--kind", "monotone", "--r", "1", "--g", "0", "--n", "3",
     "--grid-base", HUGE),
])
def test_huge_argument_is_a_usage_error(capsys, argv):
    # past the machine's index range: one error line, no traceback
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_compute_failure_names_the_routes(capsys, monkeypatch):
    import hurwitz.counts as counts

    # compute reads one number, through the integer dispatch
    def wrong_fock(route, kind, r, mus, b_max, connected):
        den, nums = route_block(route, kind, r, mus, b_max, connected)
        return den, nums[:-1] + (nums[-1] + den * (route == "fock"),)

    route_block = counts._route_block
    monkeypatch.setattr(counts, "_route_block", wrong_fock)
    code, out, _ = invoke(capsys, "compute", "--kind", "monotone", "--r", "2",
                          "--g", "0", "--mu", "1,3", "--method", "all")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "FAIL"
    assert data["disagreements"] == [
        {"routes": "character/fock", "character": "2", "fock": "3"},
        {"routes": "fock/oracle", "fock": "3", "oracle": "2"},
    ]
    code, out, _ = invoke(capsys, "--format", "text", "compute", "--kind", "monotone",
                          "--r", "2", "--g", "0", "--mu", "1,3", "--method", "all")
    assert "# disagreement  character=2  fock=3  routes=character/fock" in out


def test_cross_validate_failure_keeps_both_witnesses(capsys, monkeypatch):
    import hurwitz.counts as counts

    route_series = counts.route_series
    wrong_at = {"oracle": 2, "fock": 1}

    def wrong_routes(route, kind, r, mus, b_max, connected):
        coeffs = route_series(route, kind, r, mus, b_max, connected)
        return tuple(c + (b == wrong_at.get(route)) for b, c in enumerate(coeffs))

    monkeypatch.setattr(counts, "route_series", wrong_routes)
    code, out, _ = invoke(capsys, "cross-validate", "--kind", "monotone", "--r", "2",
                          "--max-d", "2", "--max-b", "3")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "FAIL"
    first = data["results"][0]
    assert first["mu"] == [2] and first["status"] == "FAIL"
    assert first["disagreements"] == [
        {"routes": "character/oracle", "b": 2, "character": "1/2", "oracle": "3/2"},
        {"routes": "character/fock", "b": 1, "character": "0", "fock": "1"},
    ]


def test_unstable_check_case_identities_keep_their_own_status(capsys, monkeypatch):
    import hurwitz.spectral as spectral

    check_F01 = spectral.check_F01

    def failing_F01(kind, r, order):
        return check_F01(kind, r, order)._replace(passed=False)

    monkeypatch.setattr(spectral, "check_F01", failing_F01)
    code, out, _ = invoke(capsys, "unstable-check", "--kind", "monotone", "--r", "2",
                          "--order", "6")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "FAIL"
    assert [(rec["check"], rec["status"]) for rec in data["results"]] == [
        ("F01", "FAIL"), ("bergman02", "PASS"), ("case_identities", "PASS")]


def test_unstable_check_reports_planted_closed_forms(capsys, monkeypatch):
    from test_spectral import plant_closed_forms

    plant_closed_forms(monkeypatch)
    code, out, _ = invoke(capsys, "unstable-check", "--kind", "strict", "--r", "2",
                          "--order", "4")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "FAIL"
    assert [rec["witness"] for rec in data["results"]] == [
        {"exponent": 1, "curve_side": "-1", "closed_side": "-3"}]
    code, out, _ = invoke(capsys, "unstable-check", "--kind", "monotone", "--r", "2",
                          "--order", "4")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "FAIL"
    assert [(rec["check"], rec["status"], rec["witness"]) for rec in data["results"]] == [
        ("F01", "FAIL", {"exponent": 1, "curve_side": "1", "closed_side": "3"}),
        ("bergman02", "FAIL",
         {"mu1": 1, "mu2": 1, "series_side": "1", "two_point_side": "2"}),
        ("case_identity", "FAIL", {"lhs": "4", "rhs": "2"}),
        ("case_identities", "FAIL", None)]
    assert data["results"][2]["params"] == {"r": 2, "mu1": 1, "mu2": 1, "case": "I"}


def test_csv_keeps_status_oracle_and_disagreements(capsys, monkeypatch):
    import hurwitz.counts as counts

    _, out, _ = invoke(capsys, "--format", "csv", "compute", "--kind", "monotone",
                       "--r", "1", "--g", "0", "--mu", "4,3", "--method", "all")
    assert out.splitlines() == [
        "connected,g,kind,method,mu,oracle,r,status,value",
        "true,0,monotone,character,[4 3],skipped,1,PASS,100",
        "true,0,monotone,fock,[4 3],skipped,1,PASS,100",
    ]

    # compute reads one number, through the integer dispatch
    def wrong_fock(route, kind, r, mus, b_max, connected):
        den, nums = route_block(route, kind, r, mus, b_max, connected)
        return den, nums[:-1] + (nums[-1] + den * (route == "fock"),)

    route_block = counts._route_block
    monkeypatch.setattr(counts, "_route_block", wrong_fock)
    code, out, _ = invoke(capsys, "--format", "csv", "compute", "--kind", "monotone",
                          "--r", "2", "--g", "0", "--mu", "1,3", "--method", "all")
    assert code == 1
    assert out.splitlines() == [
        "character,connected,fock,g,kind,method,mu,oracle,r,routes,status,value",
        ",true,,0,monotone,character,[1 3],,2,,FAIL,2",
        ",true,,0,monotone,fock,[1 3],,2,,FAIL,3",
        ",true,,0,monotone,oracle,[1 3],,2,,FAIL,2",
        "2,,3,,,,,,,character/fock,FAIL,",
        ",,3,,,,,2,,fock/oracle,FAIL,",
    ]


def test_csv_and_text_formats(capsys):
    code, out, _ = invoke(capsys, "--format", "csv", "series", "--kind", "monotone",
                          "--r", "2", "--mu", "2", "--order", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,status,value"
    assert lines[1:] == ["0,PASS,1/2", "1,PASS,0", "2,PASS,1/2"]
    code, out, _ = invoke(capsys, "--format", "text", "compute", "--kind", "monotone",
                          "--r", "2", "--g", "0", "--mu", "2,2")
    assert code == 0
    assert "status=PASS" in out


def csv_rows(capsys, *argv):
    """The --format csv output of a command, each row checked to the header's width."""
    code, out, _ = invoke(capsys, "--format", "csv", *argv)
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows), (argv, out)
    return code, rows


@pytest.mark.parametrize("argv", [
    ("compute", "--kind", "monotone", "--r", "2", "--g", "0", "--mu", "1,3",
     "--method", "all"),
    ("series", "--kind", "strict", "--r", "2", "--mu", "2,2", "--order", "4"),
    ("verify-quasipoly", "--kind", "monotone", "--r", "1", "--g", "0", "--n", "3"),
    ("verify-quasipoly", "--kind", "usual", "--r", "2", "--g", "1", "--n", "2"),
    ("xi", "--kind", "strict", "--r", "2", "--i", "1", "--order", "8", "--derivative", "1"),
    ("unstable-check", "--kind", "monotone", "--r", "2", "--order", "6"),
    ("cross-validate", "--r", "2", "--max-d", "4", "--max-b", "3"),
])
def test_csv_rows_have_the_header_width(capsys, argv):
    # nested lists and dicts, as in the verifier's grid and holdouts, keep
    # no comma in their cell
    code, rows = csv_rows(capsys, *argv)
    assert code == 0
    assert not any("," in cell for row in rows for cell in row), rows


def test_csv_rows_of_failures_have_the_header_width(capsys, monkeypatch):
    import hurwitz.counts as counts
    import hurwitz.polycheck as polycheck

    number_pair = polycheck.number_pair

    def one_more_at_211(kind, r, g, mus):
        num, den = number_pair(kind, r, g, mus)
        return num + den * (mus == (2, 1, 1)), den

    monkeypatch.setattr(polycheck, "number_pair", one_more_at_211)
    argv = ("verify-quasipoly", "--kind", "monotone", "--r", "1", "--g", "0", "--n", "3")
    code, rows = csv_rows(capsys, *argv)
    assert code == 1
    assert rows[1][rows[0].index("reason")] == "holdout mismatch at (2; 1; 1)"
    _, out, _ = invoke(capsys, "--format", "text", *argv)
    assert "  reason=holdout mismatch at (2; 1; 1)  " in out

    route_series = counts.route_series
    monkeypatch.setattr(counts, "route_series",
                        lambda route, *args: route_series(route, *args)
                        if route != "fock" else (1,) + route_series(route, *args)[1:])
    code, rows = csv_rows(capsys, "cross-validate", "--kind", "monotone", "--r", "2",
                          "--max-d", "4", "--max-b", "3")
    assert code == 1
    cells = [row[rows[0].index("disagreements")] for row in rows[1:]]
    assert '[{"b": 0; "character": "0"; "fock": "1"; "routes": "character/fock"}]' in cells


def test_compute_writes_no_files(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    monkeypatch.setenv("HURWITZ_CACHE_DIR", str(cache_dir))
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(capsys, "compute", "--kind", "monotone", "--r", "2",
                          "--g", "0", "--mu", "2,2", "--method", "all")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == "3/2"
    assert [p.name for p in tmp_path.iterdir()] == ["cache"]
    assert list(cache_dir.iterdir()) == []


def test_closed_stdout_exits_quietly():
    # the reader is gone before the CLI writes: exit 141 (128 + SIGPIPE), no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hurwitz.cli", "compute", "--kind", "monotone",
             "--r", "2", "--g", "0", "--mu", "2,2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
