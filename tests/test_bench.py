"""The bench harness `bench/trees.py`: its case list and the rule by which it
refuses a run.  No process is spawned; the rounds are made up here.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "trees.py"


def load_trees():
    """bench/trees.py as a module, with this process's sys.path and bytecode flag kept."""
    saved = sys.path[:], sys.dont_write_bytecode
    spec = importlib.util.spec_from_file_location("bench_trees", BENCH)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return module


trees = load_trees()
CALL = "compute --kind monotone --r 1 --g 0 --mu 2,1 --method all"
CASES = [{"group": "import", "name": "import", "argv": ["-c", "import hurwitz, hurwitz.cli"]},
         {"group": "compute", "name": CALL, "argv": ["-m", "hurwitz.cli", *CALL.split()]},
         {"group": "degree_sweep", "name": "degree_sweep", "argv": ["-c", "..."],
          "requests": [["sweep", "monotone", 1, [1], 2]] * 3}]


def run(exit=0, stdout="same", wall=0.1, **extra):
    """One made-up run of one case."""
    return {"exit": exit, "wall_s": wall, "cpu_s": wall, "peak_rss_mb": 20.0,
            "stdout_sha256": stdout, **extra}


def library_run(wall=0.3):
    return run(wall=wall, answers=3, sha256="answers", run_cpu_s=wall / 3, run_wall_s=wall / 3)


def clean_round(wall=0.1):
    return [run(wall=wall), run(wall=wall), library_run(3 * wall)]


def test_clean_rounds_give_no_problem_and_medians_by_case_and_group():
    record, problems = trees.summarize("t", CASES, [clean_round(w) for w in (0.1, 0.3, 0.2)])
    assert problems == []
    compute, sweep = record["cases"][1], record["cases"][2]
    assert compute["exit"] == [0] and compute["wall_s"] == 0.2 and "run_cpu_s" not in compute
    assert sweep["requests"] == 3 and sweep["answers"] == 3 and sweep["sha256"] == "answers"
    assert abs(sweep["run_cpu_s"] - 0.2) < 1e-12
    assert [r["wall_s"] for r in record["groups"]["compute"]["rounds"]] == [0.1, 0.3, 0.2]
    assert record["groups"]["import"]["cases"] == 1


def test_a_nonzero_exit_names_the_case_and_its_last_stderr_line():
    failed = run(exit=2, stderr="error: --mu entries must be positive integers")
    rounds = [clean_round(), [run(), failed, library_run()]]
    record, problems = trees.summarize("t", CASES, rounds)
    assert problems == [f"t: {CALL} exited [0, 2]: error: --mu entries must be positive integers"]
    assert record["cases"][1]["exit"] == [0, 2]


def test_a_failed_library_case_is_named_without_its_timings():
    rounds = [[run(), run(), run(exit=1, stderr="ZeroDivisionError: division by zero")]]
    record, problems = trees.summarize("t", CASES, rounds)
    assert problems == ["t: degree_sweep exited [1]: ZeroDivisionError: division by zero"]
    assert "run_cpu_s" not in record["groups"]["degree_sweep"]


def test_stdout_that_differs_between_rounds_names_the_case():
    rounds = [clean_round(), [run(), run(), run(stdout="other")]]
    _, problems = trees.summarize("t", CASES, rounds)
    assert problems == ["t: degree_sweep printed different stdout across rounds"]


def test_stdout_that_differs_between_trees_names_the_case():
    records = [{"src": src, **trees.summarize(src, CASES, [round_])[0]}
               for src, round_ in (("a", clean_round()), ("b", clean_round()),
                                   ("c", [run(), run(stdout="indented"), library_run()]))]
    assert trees.compare_trees(records) == [f"{CALL}: stdout of c differs from a"]


def test_the_case_list():
    cases = trees.cases()
    assert len(cases) == 76
    assert [c["name"] for c in cases if c["group"] == "import"] == ["import"]
    calls = [c for c in cases if c["argv"][:2] == ["-m", "hurwitz.cli"]]
    assert len(calls) == 66 and all(c["group"] == c["argv"][2] for c in calls)
    assert Counter(c["group"] for c in calls) == {
        "compute": 18, "series": 12, "xi": 12, "verify-quasipoly": 12, "unstable-check": 12}
    assert [(c["name"], len(c["requests"])) for c in cases if "requests" in c] == [
        ("route_agreement", 174), ("degree_sweep", 126), ("quasipoly", 54),
        ("frontier monotone r=3 (g,n)=(2,3)", 343), ("frontier strict r=3 (g,n)=(2,3)", 343),
        ("frontier usual r=3 (g,n)=(2,3)", 343), ("frontier monotone r=3 (g,n)=(1,4)", 625),
        ("frontier monotone r=3 (g,n)=(3,3)", 1000), ("frontier usual r=4 (g,n)=(2,3)", 343)]
    # each frontier case is one verifier tensor grid with residues 0, on fock:
    # (3g - 2 + n)^n distinct profiles, every part a positive multiple of r
    for case in cases[-6:]:
        head, profiles = case["requests"][0][:4], [req[4] for req in case["requests"]]
        assert case["group"] == "frontier" and head[0] == "fock"
        assert all(req[:4] == head for req in case["requests"])
        r, g, n = head[2], head[3], len(profiles[0])
        assert len({tuple(mus) for mus in profiles}) == (3 * g - 2 + n) ** n
        assert all(len(mus) == n and min(mus) >= r and all(mu % r == 0 for mu in mus)
                   for mus in profiles)
    assert len({c["name"] for c in cases}) == 76


def test_paired_rounds_take_each_round_against_the_first_tree():
    # the host slows in round 2 for both trees; the ratio per round divides
    # that out, where the medians per tree would not
    base = trees.summarize("a", CASES, [clean_round(w) for w in (0.1, 0.3, 0.2)])[0]
    other = trees.summarize("b", CASES, [clean_round(w) for w in (0.09, 0.27, 0.22)])[0]
    paired = trees.paired_rounds(base, other)
    assert {name: set(ratios) for name, ratios in paired.items()} == {
        "import": {"cpu_s"}, "compute": {"cpu_s"}, "degree_sweep": {"cpu_s", "run_cpu_s"}}
    for ratios in paired.values():
        for ratio in ratios.values():
            assert abs(ratio.pop("median_ratio") - 0.9) < 1e-9
            assert ratio == {"lower": 2, "rounds": 3}


def test_paired_rounds_leave_out_a_key_some_round_lacks():
    failed = [run(), run(), run(exit=1, stderr="ZeroDivisionError: division by zero")]
    base = trees.summarize("a", CASES, [clean_round(), clean_round()])[0]
    other = trees.summarize("b", CASES, [clean_round(0.2), failed])[0]
    paired = trees.paired_rounds(base, other)
    assert "run_cpu_s" not in paired["degree_sweep"]
    assert paired["compute"]["cpu_s"] == {"median_ratio": 1.5, "lower": 0, "rounds": 2}


def test_paired_cases_take_each_case_in_each_round_against_the_first_tree():
    # one case goes down and one up in every round, so their group ratios
    # and the median over both hide what each case did
    base = trees.summarize("a", CASES, [clean_round(w) for w in (0.1, 0.3, 0.2)])[0]
    rounds = [[run(wall=w), run(wall=w * s), library_run(3 * w * t)]
              for w, s, t in ((0.1, 0.5, 1.2), (0.3, 0.6, 0.9), (0.2, 1.5, 1.1))]
    other = trees.summarize("b", CASES, rounds)[0]
    paired = trees.paired_cases(base, other)
    assert set(paired) == {"import", CALL, "degree_sweep"}
    got = {name: {key: (round(r["median_ratio"], 9), r["lower"], r["rounds"])
                  for key, r in ratios.items()} for name, ratios in paired.items()}
    assert got == {"import": {"cpu_s": (1.0, 0, 3)}, CALL: {"cpu_s": (0.6, 2, 3)},
                   "degree_sweep": {"cpu_s": (1.1, 1, 3), "run_cpu_s": (1.1, 1, 3)}}


def test_paired_cases_leave_out_a_key_some_round_lacks():
    failed = [run(), run(), run(exit=1, stderr="ZeroDivisionError: division by zero")]
    base = trees.summarize("a", CASES, [clean_round(), clean_round()])[0]
    other = trees.summarize("b", CASES, [clean_round(0.2), failed])[0]
    paired = trees.paired_cases(base, other)
    assert set(paired["degree_sweep"]) == {"cpu_s"}
    assert paired[CALL]["cpu_s"] == {"median_ratio": 1.5, "lower": 0, "rounds": 2}
