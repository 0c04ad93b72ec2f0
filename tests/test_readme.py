"""The README's examples run as written and do what they say."""

import doctest
import random
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from durakit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_outputs():
    text = README.read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```python\n(.*?)```", text, re.S) if ">>>" in b)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0
    assert failed == 0


def _expand(word: str) -> list[str]:
    """The shell expansions the CLI example uses: one brace list, or a glob."""
    match = re.fullmatch(r"(.*)\{(.*)\}(.*)", word)
    if match:
        head, options, tail = match.groups()
        return [head + option + tail for option in options.split(",")]
    if "*" in word:
        return sorted(str(path) for path in Path().glob(word))
    return [word]


def test_cli_example_runs(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```sh\n(.*?)```", text, re.S) if "\ndurakit " in b)
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.startswith("#")]
    monkeypatch.chdir(tmp_path)
    original = random.Random(7).randbytes(100_000)
    Path("big.bin").write_bytes(original)
    runner = CliRunner()
    for line in lines:
        program, *args = [w for word in shlex.split(line) for w in _expand(word)]
        if program == "rm":
            for path in args:
                Path(path).unlink()
            continue
        assert program == "durakit", line
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (line, result.output)
    assert len(lines) >= 9
    assert Path("restored.bin").read_bytes() == original
