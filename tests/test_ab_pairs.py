"""``tools/ab_pairs.py``: the base revision's extraction, one run's
metrics, and the pairs' summary.

The extraction runs on a repository made in a temporary directory, so the
suite never touches the repository under test.
"""

import importlib.util
import json
import pathlib
import subprocess
import tempfile

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "ab_pairs", ROOT / "tools" / "ab_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


TOOL = load_tool()

# a stand-in for perfbench/run.py: echoes its arguments as a metric
STUB = """import json, sys
print("perfbench stub")
print(json.dumps({"correct": %s, "attempted": 2, "failed": %d,
                  "metrics": {"wall_s": {"value": 1.5, "unit": "s"},
                              "argv": {"value": sys.argv[1:],
                                       "unit": "count"}}}))
"""


def stub_tree(tmp_path, correct=True):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        STUB % (correct, 0 if correct else 1))
    return tmp_path


def git_repo(path):
    """A repository at ``path`` with one commit: the ``perfbench`` stub."""
    path.mkdir()
    stub_tree(path)
    for cmd in (["init", "-q"], ["add", "-A"],
                ["-c", "user.name=stub", "-c", "user.email=stub@example.org",
                 "commit", "-q", "-m", "stub"]):
        subprocess.run(["git", *cmd], cwd=path, check=True)
    return path


def git_files(repo) -> list:
    """Every path under ``repo``'s ``.git``, with its size."""
    return sorted((str(p.relative_to(repo)), p.stat().st_size)
                  for p in (repo / ".git").rglob("*") if p.is_file())


def test_extract_reads_the_revision_only(tmp_path):
    """HEAD's files come out as committed, without a ``.git``; the
    repository's ``.git`` is unchanged, so no worktree was added."""
    repo = git_repo(tmp_path / "repo")
    before = git_files(repo)
    (repo / "perfbench" / "run.py").write_text("# not committed\n")
    dest = tmp_path / "base"
    TOOL.extract(repo, "HEAD", dest)
    assert sorted(str(p.relative_to(dest)) for p in dest.rglob("*")) == [
        "perfbench", "perfbench/run.py"]
    assert (dest / "perfbench" / "run.py").read_text() == STUB % (True, 0)
    assert git_files(repo) == before


def test_extract_refuses_an_unknown_revision(tmp_path):
    repo = git_repo(tmp_path / "repo")
    with pytest.raises(SystemExit, match="could not extract"):
        TOOL.extract(repo, "no-such-revision", tmp_path / "base")


def test_pairs_run_in_the_extracted_base(tmp_path, monkeypatch):
    """``main`` alternates the sides over the extracted base and the
    working tree, then removes its temporary directory."""
    repo = git_repo(tmp_path / "repo")
    before = git_files(repo)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    monkeypatch.setattr(TOOL, "ROOT", repo)
    monkeypatch.setattr(TOOL, "end_to_end", lambda: [("wall_s", "lower",
                                                      0.25)])
    runs = []

    def run_once(tree, workload, seed):
        runs.append((tree == repo, (tree / "perfbench" / "run.py").exists()))
        return {"wall_s": 1.0}

    monkeypatch.setattr(TOOL, "run_once", run_once)
    assert TOOL.main(["--base", "HEAD", "--workload", "planar",
                      "--pairs", "2"]) == 0
    assert runs == [(False, True), (True, True), (True, True),
                    (False, True)]
    assert list((tmp_path / "tmp").iterdir()) == []
    assert git_files(repo) == before


def test_metrics_are_the_benchmarks_end_to_end():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert TOOL.end_to_end() == [(m["name"], m["better"], m["bound"])
                                 for m in spec["end_to_end"]]


def test_run_once_reads_the_last_line(tmp_path):
    got = TOOL.run_once(stub_tree(tmp_path), "planar", 2)
    assert got == {"wall_s": 1.5, "argv": [
        "--workload", "planar", "--seed", "2", "--seconds", "30",
        "--trace", "0"]}


def test_run_once_refuses_failed_instances(tmp_path):
    with pytest.raises(SystemExit, match="1 failed instance"):
        TOOL.run_once(stub_tree(tmp_path, correct=False), "planar", 1)


def test_report_counts_wins_by_direction(capsys):
    def run(wall_s, ok_rate):
        return {"wall_s": wall_s, "ok_rate": ok_rate}

    pairs = [(run(2.0, 1.0), run(1.0, 1.0)), (run(2.0, 0.5), run(2.0, 1.0)),
             (run(1.0, 1.0), run(3.0, 0.9))]
    TOOL.report(pairs, [("wall_s", "lower", 0.25),
                        ("ok_rate", "higher", 0.005)])
    wall, ok = capsys.readouterr().out.splitlines()
    # a tie wins neither side
    assert "median 2 -> 2 (+0.0%" in wall and "won 1 of 3" in wall
    assert "won 1 of 3" in ok
    assert wall.endswith("quartiles [1.5, 2] -> [1.5, 2.5]: within bound")
    assert ok.endswith("quartiles [0.75, 1] -> [0.95, 1]: unresolved")


# base runs of a lower-is-better metric: median 1.00, quartiles 0.99 and
# 1.01
BASE = [0.97, 0.98, 0.99, 0.99, 1.0, 1.0, 1.01, 1.01, 1.02, 1.03]


@pytest.mark.parametrize("work, bound, want", [
    ([b - 0.1 for b in BASE], 0.25, "gain"),
    # 8 of 10 pairs won is not enough, however large the gap
    ([b - 0.5 for b in BASE[:8]] + [2.0, 2.0], 0.25, "within bound"),
    # 10 of 10 won, but by less than the base's spread
    ([b - 0.001 for b in BASE], 0.25, "within bound"),
    ([b + 0.3 for b in BASE], 0.25, "worse than bound"),
    ([b + 0.01 for b in BASE], 0.005, "worse than bound"),
    ([b + 0.01 for b in BASE], 0.015, "unresolved"),
    ([b + 0.01 for b in BASE], 0.05, "within bound"),
], ids=["gain", "8-of-10", "inside-spread", "worse", "worse-small-bound",
        "unresolved", "within"])
def test_verdicts(work, bound, want):
    assert TOOL.verdict(BASE, work, "lower", bound) == want


def test_verdict_follows_the_direction():
    """A higher-is-better metric gains when the working tree is higher."""
    up = [b + 0.1 for b in BASE]
    assert TOOL.verdict(BASE, up, "higher", 0.25) == "gain"
    assert TOOL.verdict(up, BASE, "higher", 0.05) == "worse than bound"


def test_pairs_must_be_positive():
    """Refused before anything is extracted."""
    with pytest.raises(SystemExit):
        TOOL.main(["--base", "HEAD", "--workload", "planar", "--pairs", "0"])
