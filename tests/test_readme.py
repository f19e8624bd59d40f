"""The README's code examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under Library use"
    exec(compile(block.group(1), "README.md (Library use)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(float(v) > 0 for v in printed)
