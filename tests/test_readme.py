"""README.md's examples hold: its Python blocks run and its command lines parse."""

import re
import shlex
from pathlib import Path

import pytest

from rhocalc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_command_lines_parse():
    # every command line README shows, each --option included, is one the
    # CLI accepts, so the docs cannot advertise a removed flag
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.S | re.M).group(1)
    assert "--json" in block
    for line in block.splitlines():
        args = shlex.split(line, comments=True)
        assert args[:2] == ["rhocalc", "run"], line
        try:
            build_parser().parse_args(args[1:])
        except SystemExit:
            pytest.fail(f"README shows {line!r}, which rhocalc rejects")
