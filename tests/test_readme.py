"""The README's `$ sumsys ...` examples run as written, in README order."""

import shlex
from pathlib import Path

from sumsystems.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(line, argv, redirect target or None, output lines shown) per example.

    A `# ...` comment is dropped, a `> file` redirect names the file stdout
    goes to, and of a pipeline only the command before the `|` runs.
    """
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not line.startswith("$ sumsys "):
            continue
        command = line[2:].split("#")[0].split("|")[0]
        command, _, target = command.partition(">")
        shown = []
        for after in lines[i + 1:]:
            if after.startswith(("$ ", "```")):
                break
            shown.append(after)
        examples.append((line, shlex.split(command)[1:], target.strip() or None, shown))
    return examples


def test_readme_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert examples
    for line, argv, target, shown in examples:
        code = run(argv)
        out = capsys.readouterr().out
        assert code == 0, line
        if target:
            Path(target).write_text(out)
        if "--format plain" in line:
            assert out.splitlines()[:len(shown)] == shown, line
