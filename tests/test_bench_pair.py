"""The case table of tools/bench_pair.py and the harness that runs it."""

import importlib.util
import subprocess
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


def test_change_side_is_an_export_of_the_working_tree(tmp_path, monkeypatch):
    """The change runs from a copy of the working tree as it stands:
    edited and untracked files in, ignored ones out, and the recorded tree
    ids are those of the exported files."""
    repo = tmp_path / "repo"

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True, text=True).stdout
    for d in bench_pair.MEASURED:
        (repo / d).mkdir(parents=True)
        (repo / d / "kept.py").write_text("old\n")
    (repo / ".gitignore").write_text("*.pyc\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "src" / "skip.pyc").write_text("ignored\n")
    monkeypatch.setattr(bench_pair, "ROOT", repo)
    change = tmp_path / "change"
    trees = bench_pair.export_worktree(change)
    files = {str(p.relative_to(change)): p.read_text()
             for p in change.rglob("*") if p.is_file()}
    assert files == {".gitignore": "*.pyc\n", "src/kept.py": "edited\n",
                     "src/new.py": "untracked\n",
                     "perfbench/kept.py": "old\n"}
    assert git("status", "--porcelain") == " M src/kept.py\n?? src/new.py\n"
    git("add", "-A")
    git("commit", "-q", "-m", "change")
    assert trees == {d: git("rev-parse", f"HEAD:{d}").strip()
                     for d in bench_pair.MEASURED}
