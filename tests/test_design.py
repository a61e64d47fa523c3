"""Design rules the source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defaults(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each parameter of fn with a default; the
    position counts the arguments a call writes, so a method skips self."""
    a = fn.args
    positional = a.posonlyargs + a.args
    skip = 1 if method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in fn.decorator_list) else 0
    for k, arg in enumerate(positional[len(positional) - len(a.defaults):],
                            len(positional) - len(a.defaults)):
        yield arg.arg, k - skip
    for arg, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield arg.arg, None


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _passes(call: ast.Call, param: str, pos: int | None) -> bool:
    """Whether call sets param, by keyword (or **kwargs) or at position pos
    (or through *args)."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return pos is not None and (len(call.args) > pos or any(
        isinstance(a, ast.Starred) for a in call.args))


def test_every_keyword_default_has_a_caller():
    # a parameter default that no call in src/, tests/ or bench/ overrides
    # is a constant in disguise: an option without a caller. A call matches
    # a function by its name, and a class's __init__ by the class name.
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    checked, unused = 0, []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "rhocalc":
            continue
        scopes = [(None, tree)] + [(c.name, c) for c in ast.walk(tree)
                                   if isinstance(c, ast.ClassDef)]
        for cls, scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                name = cls if fn.name == "__init__" else fn.name
                for param, pos in _defaults(fn, cls is not None):
                    checked += 1
                    if not any(_passes(c, param, pos) for c in calls.get(name, [])):
                        unused.append(f"{path.name}: {name}({param})")
    assert checked and not unused, unused
