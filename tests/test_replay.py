"""tests/replay.py reports a changed message on a mutant of src/, and
nothing on an unchanged copy."""

import base64
import json
import shutil
import sys
from pathlib import Path

import fresh

ROOT = Path(__file__).resolve().parents[1]
REPLAY = ROOT / "tests" / "replay.py"
COLLIDING = {"N": 4, "components": [[0, 1], [0, 1]], "doubled": False}
CORPUS = {
    "argv": [
        ["count", "--n", "12"],
        ["build", "--jof", "1:2,2:3", "--centred"],
        ["enumerate", "--tuple", "2,3"],
        ["verify", "--file", {"file": "colliding"}, "--format", "plain"],
        ["table", "--max-n", "0", "--max-m", "1"],
    ],
    "files": {"colliding": base64.b64encode(json.dumps(COLLIDING).encode()).decode()},
}


def replay(tmp_path, new: Path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps(CORPUS))
    return fresh.run([sys.executable, str(REPLAY), "--old", str(ROOT), "--new", str(new),
                      "--corpus", str(corpus), "--n", "32"], timeout=120)


def copy_of_src(tmp_path, name: str) -> Path:
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def test_unchanged_copy_reports_nothing(tmp_path):
    done = replay(tmp_path, copy_of_src(tmp_path, "same"))
    assert done.returncode == 0, done.stdout + done.stderr
    assert "DIFF" not in done.stdout
    assert "5 argv, 0 differing" in done.stdout
    assert ", 0 differing\n" in done.stdout


def test_changed_message_is_reported(tmp_path):
    tree = copy_of_src(tmp_path, "mutant")
    module = tree / "src" / "sumsystems" / "verify.py"
    text = module.read_text()
    assert "sums collide when component" in text
    module.write_text(text.replace("sums collide when component", "sums clash when component"))
    done = replay(tmp_path, tree)
    assert done.returncode == 1, done.stdout + done.stderr
    diffs = [line for line in done.stdout.splitlines() if line.startswith("DIFF argv:")]
    assert diffs == ["DIFF argv: sumsys verify --file <file colliding> --format plain"]
    assert "stdout sha256" in done.stdout
    assert "5 argv, 1 differing" in done.stdout


def test_a_kill_by_another_limit_is_a_difference(capsys):
    sys.path.insert(0, str(REPLAY.parent))
    try:
        from replay import _compare_argv
    finally:
        sys.path.remove(str(REPLAY.parent))
    corpus = {"argv": [["count"], ["table"], ["build"], ["enumerate"]]}
    ran = {"killed": None, "code": 0, "stdout": "0" * 64, "stderr": ""}
    budget = {**ran, "killed": "budget", "code": None}
    memory = {**budget, "killed": "memory"}
    assert _compare_argv(corpus, [ran, budget, budget, memory],
                         [ran, budget, memory, ran]) == 2
    report = capsys.readouterr().out
    assert "DIFF argv: sumsys build\n    killed budget -> memory\n" in report
    assert "DIFF argv: sumsys enumerate\n    killed memory -> None\n" in report
    assert "DIFF argv: sumsys table" not in report
