import json

import pytest

from hurwitz.cli import run
from hurwitz.partitions import configure_cache


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HURWITZ_CACHE_DIR", str(tmp_path / "cache"))
    yield
    configure_cache(None)


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


def test_compute_failure_names_the_routes(capsys, monkeypatch):
    import hurwitz.cli as cli

    def wrong_fock(req):
        value = hurwitz_number(req)
        return value + 1 if req.method == "fock" else value

    hurwitz_number = cli.hurwitz_number
    monkeypatch.setattr(cli, "hurwitz_number", wrong_fock)
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
    import hurwitz.cli as cli
    from hurwitz.series import TruncatedSeries

    oracle_series = cli.oracle_series
    fock_shifted_coefficient = cli.fock_shifted_coefficient

    def wrong_oracle(kind, r, mus, u_order):
        return oracle_series(kind, r, mus, u_order) + TruncatedSeries.monomial("u", 2)

    def wrong_fock(kind, r, mus, b, connected):
        return fock_shifted_coefficient(kind, r, mus, b, connected) + (b == 1)

    monkeypatch.setattr(cli, "oracle_series", wrong_oracle)
    monkeypatch.setattr(cli, "fock_shifted_coefficient", wrong_fock)
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


def test_csv_and_text_formats(capsys):
    code, out, _ = invoke(capsys, "--format", "csv", "series", "--kind", "monotone",
                          "--r", "2", "--mu", "2", "--order", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "b,value"
    code, out, _ = invoke(capsys, "--format", "text", "compute", "--kind", "monotone",
                          "--r", "2", "--g", "0", "--mu", "2,2")
    assert code == 0
    assert "status=PASS" in out


def test_cache_commands(tmp_path, capsys):
    cache_dir = str(tmp_path / "explicit")
    code, out, _ = invoke(capsys, "--cache-dir", cache_dir, "cache", "warm", "--d", "4")
    assert code == 0
    assert json.loads(out)["results"][0]["entries"] >= 25
    code, out, _ = invoke(capsys, "--cache-dir", cache_dir, "cache", "info")
    data = json.loads(out)
    assert data["results"][0]["entries"] >= 25
    assert data["results"][0]["path"].endswith("characters.txt")
    code, out, _ = invoke(capsys, "--cache-dir", cache_dir, "cache", "clear")
    assert code == 0
    code, out, _ = invoke(capsys, "--cache-dir", cache_dir, "cache", "info")
    assert json.loads(out)["results"][0]["entries"] == 0
    # computing still works against the (now empty) persistent cache
    code, out, _ = invoke(capsys, "--cache-dir", cache_dir, "compute", "--kind",
                          "monotone", "--r", "1", "--g", "1", "--mu", "3")
    assert code == 0
