"""The README's code examples run against the current API."""

import configparser
import re
from pathlib import Path

from hemoflow.pipeline import DEFAULTS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under Library use"
    exec(compile(block.group(1), "README.md (Library use)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(float(v) > 0 for v in printed)


def test_configuration_block_lists_every_key_with_its_default():
    section = README.read_text().split("\n## Configuration\n", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S)
    assert block is not None, "no ini block under Configuration"
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    parser.read_string(block.group(1))
    assert {name: dict(parser[name]) for name in parser.sections()} == DEFAULTS
