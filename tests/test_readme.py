"""The README's library example runs as written and prints what it says."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_outputs():
    text = README.read_text(encoding="utf-8")
    block = next(b for b in re.findall(r"```python\n(.*?)```", text, re.S) if ">>>" in b)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    failed, attempted = doctest.DocTestRunner().run(test)
    assert attempted > 0
    assert failed == 0
