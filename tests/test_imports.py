"""What a process loads: the package namespace is lazy and each CLI command
imports only the modules it runs.

Each check runs in a fresh `python -s` with PYTHONDONTWRITEBYTECODE=1, the
setting under which every module a process imports is compiled from source.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
ROUTE_MODULES = {"hurwitz.counts", "hurwitz.fock", "hurwitz.partitions"}


def loaded_by(code: str) -> set:
    """The modules that running `code` in a fresh interpreter adds to sys.modules."""
    probe = ("import sys\nbefore = set(sys.modules)\n" + code +
             "\nimport json\nsys.__stdout__.write(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-s", "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def run_quietly(*argv: str) -> str:
    """Probe code: cli.run(argv) with its output and exit swallowed."""
    return ("import contextlib, io\nfrom hurwitz import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        assert cli.run({list(argv)!r}) == 0\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0\n")


def test_importing_the_cli_loads_only_kinds():
    loaded = loaded_by("import hurwitz, hurwitz.cli")
    assert {m for m in loaded if m.startswith("hurwitz")} == {
        "hurwitz", "hurwitz.cli", "hurwitz.kinds"}
    assert not {"dataclasses", "inspect"} & loaded


@pytest.mark.parametrize("argv", [
    ("xi", "--kind", "monotone", "--r", "2", "--i", "1", "--order", "14"),
    ("xi", "--kind", "usual", "--r", "3", "--i", "2", "--order", "12", "--derivative", "1"),
    ("unstable-check", "--kind", "monotone", "--r", "2", "--order", "10"),
    ("unstable-check", "--kind", "strict", "--r", "3", "--order", "9"),
], ids=["xi", "xi-derivative", "unstable-check-monotone", "unstable-check-strict"])
def test_curve_commands_load_no_route_module(argv):
    loaded = loaded_by(run_quietly(*argv))
    assert "hurwitz.spectral" in loaded
    assert not ROUTE_MODULES & loaded


def test_version_loads_no_route_module():
    loaded = loaded_by(run_quietly("--version"))
    assert {m for m in loaded if m.startswith("hurwitz")} == {
        "hurwitz", "hurwitz.cli", "hurwitz.kinds"}


def test_every_public_name_resolves_to_its_module_attribute():
    check = ("import importlib, hurwitz\n"
             "listed = dir(hurwitz)\n"
             "for name in hurwitz.__all__:\n"
             "    module = importlib.import_module('hurwitz.' + hurwitz._SOURCES[name])\n"
             "    assert getattr(hurwitz, name) is getattr(module, name), name\n"
             "    assert name in listed, name\n"
             "from hurwitz import counts, hurwitz_number\n"
             "assert hurwitz.counts is counts and hurwitz_number is counts.hurwitz_number\n")
    loaded_by(check)


def test_unknown_attribute_raises_attribute_error():
    check = ("import hurwitz\n"
             "for name in ('no_such_name', 'dataclasses', '_SOURCE'):\n"
             "    try:\n"
             "        getattr(hurwitz, name)\n"
             "    except AttributeError as exc:\n"
             "        assert repr(name) in str(exc)\n"
             "    else:\n"
             "        raise AssertionError(name)\n"
             "assert not hasattr(hurwitz, 'no_such_name')\n")
    loaded_by(check)
