"""The case table of tools/bench_pair.py and the harness that runs it."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def test_every_case_is_three_strings_that_compile():
    for section, (pairs, cases) in bench_pair.CASES.items():
        assert pairs >= 1 and cases, section
        for name, case in cases.items():
            setup, call, result = case
            compile(setup, name, "exec")
            compile(call, name, "eval")
            compile(result, name, "eval")


def test_case_run_reads_the_result():
    run = bench_pair.case_run(ROOT, bench_pair.CASES["h2"][1]["S5"])
    assert run["result"] == [2]
    assert set(run["metrics"]) == {"wall_s", "peak_rss_mib"}


def test_library_error_is_a_result():
    """A refused call is recorded as its error, not a crashed bench."""
    setup, call, result = bench_pair.CASES["h2"][1]["S5"]
    case = (setup.replace("symmetric(5)", "abelian([2] * 10)"), call, result)
    run = bench_pair.case_run(ROOT, case)
    assert run["result"].startswith("CapacityError: ")
