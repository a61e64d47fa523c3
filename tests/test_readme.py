"""README.md's examples hold: its Python blocks run, its command lines parse
and the code names it cites exist."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import rhocalc
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


def test_readme_dotted_names_resolve():
    # a backticked `module.name` or `Class.attr`, called or not, must name
    # something in rhocalc, so the docs cannot cite a deleted method such as
    # Context.zeta
    modules = {info.name: importlib.import_module("rhocalc." + info.name)
               for info in pkgutil.iter_modules(rhocalc.__path__)}
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`",
                           README.read_text(encoding="utf-8")))
    assert names
    for name in sorted(names):
        head, *rest = name.split(".")
        obj = modules.get(head) or next(
            (getattr(m, head) for m in modules.values() if hasattr(m, head)), None)
        assert obj is not None, f"README cites {name}, but rhocalc has no {head}"
        for part in rest:
            assert hasattr(obj, part), f"README cites {name}, which does not resolve"
            obj = getattr(obj, part)
