"""Command-line entry point: run a session file and print its reports."""

from __future__ import annotations

import argparse
import json
import sys

from .dsl import run_session
from .errors import DslSyntaxError, RhoError


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rhocalc",
                                description="Exact color-graded algebra calculator")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a session file")
    runp.add_argument("session", help="path to a .rc session file")
    runp.add_argument("--json", action="store_true", dest="as_json",
                      help="emit one JSON document instead of text")
    return p


# built once: an argparse parser is a web of reference cycles
_PARSER = build_parser()


# a leaf as json.dumps writes it: the C encoder, default=str
_leaf = json.JSONEncoder(default=str).encode
_ascii = json.encoder.encode_basestring_ascii


def _key(k) -> str:
    # the stdlib's key rule: str as is; int, float, bool and None as their
    # JSON text
    if isinstance(k, str):
        return _ascii(k)
    if isinstance(k, (int, float)) or k is None:
        return _ascii(_leaf(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _json(value, pad: str) -> str:
    """json.dumps(value, indent=2, sort_keys=True, default=str), its inner
    lines starting with pad + two spaces.  The stdlib's indenting encoder
    is pure Python, and its closures leave a reference cycle per call."""
    if isinstance(value, str):
        return _ascii(value)
    inner = pad + "  "
    if isinstance(value, dict):
        return "{" + ",".join(f"{inner}{_key(k)}: {_json(v, inner)}"
                              for k, v in sorted(value.items())) + pad + "}" if value else "{}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(inner + _json(v, inner) for v in value) + pad + "]" if value else "[]"
    if isinstance(value, bool) or value is None:
        return "null" if value is None else "true" if value else "false"
    return int.__repr__(value) if isinstance(value, int) else _leaf(value)


def _human(reports) -> str:
    lines = []
    for r in reports:
        lines.append(f"== {r.command}")
        lines.append("   ok" if r.ok else "   ERROR")
        lines.append("   " + json.dumps(r.result, sort_keys=True, default=str))
    return "\n".join(lines) + ("\n" if lines else "")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.session, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"rhocalc: cannot read {args.session}: {e}", file=sys.stderr)
        return 2
    try:
        reports, ok = run_session(text)
        if args.as_json:
            doc = {"schema": 1, "reports": [r.payload() for r in reports]}
            out = _json(doc, "\n") + "\n"
        else:
            out = _human(reports)
    except DslSyntaxError as e:
        print(f"rhocalc: syntax error: {e}", file=sys.stderr)
        return 2
    except RhoError as e:
        # raised while parsing (the runner reports every statement's own
        # errors), e.g. by a literal the model rejects such as Z^-1
        print(f"rhocalc: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault outside any statement, e.g. a report too large to print
        print(f"rhocalc: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
