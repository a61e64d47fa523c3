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


_DICT_MUTATORS = {"update", "pop", "popitem", "clear", "setdefault"}


def _terms_mutations(source: str) -> list[int]:
    """Lines of source that change a dict held in an attribute named
    `terms`: an item assigned or deleted, an in-place operator, or a
    mutating method call."""
    def is_terms(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "terms"
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and is_terms(node.value)
                or isinstance(node, ast.AugAssign) and is_terms(node.target)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_MUTATORS and is_terms(node.func.value)):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_statement_changes_a_polynomials_terms():
    # a polynomial's terms dict may be shared: the product, image, block
    # and generator tables hand the same values to many callers, and
    # `_clean` adopts a dict without a copy, so none is changed once built
    assert _terms_mutations("p.terms[m] = c\ndel p.terms[m]\np.terms |= q\n"
                            "p.terms.update(q)\nx = p.terms.pop(m)\n"
                            "q.terms.setdefault(m, c)\np.terms.clear()\n"
                            "for p.terms[m] in cs: pass\n") == [1, 2, 3, 4, 5, 6, 7, 8]
    assert _terms_mutations("p.terms = {}\nout[m] = p.terms[m]\n"
                            "out.update(p.terms)\nc = p.terms.get(m)\n") == []
    found = {p.name: _terms_mutations(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "rhocalc").glob("*.py"))}
    assert not any(found.values()), {k: v for k, v in found.items() if v}


def _cyclo_allocations(source: str) -> list[str]:
    """The enclosing function (or '<module>') of each `object.__new__(Cyclo)`
    in source."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__" and child.args
                    and getattr(child.args[0], "id", getattr(child.args[0], "attr", None)) == "Cyclo"):
                found.append(where)
            visit(child, inner)
    visit(ast.parse(source), "<module>")
    return found


def test_a_cyclo_is_allocated_only_in_its_normal_form_constructor():
    # `cyclo._new` is the one home of the (n, num, den) normal form: every
    # value, the one-slot rationals included, is made and reduced there
    assert _cyclo_allocations("x = object.__new__(Cyclo)\n"
                              "def f():\n    return object.__new__(cyclo.Cyclo)\n"
                              "class A:\n    def g(self):\n        Cyclo.__new__(Cyclo)\n"
                              "def h():\n    return object.__new__(GradedPoly)\n") == [
        "<module>", "f", "g"]
    found = {p.name: _cyclo_allocations(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "rhocalc").glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {"cyclo.py": ["_new"]}
