"""Session-file language: declarations plus batch commands.

A session declares one grading group and commutation factor, then charts,
transitions, derivations, matrices and volumes, and runs commands against
them.  Parsing is two-phase: a syntax pass builds statement records with
source spans and compiles each polynomial expression to a function of the
chart, partial(g, *args) for ctx -> g(*args, ctx); execution resolves names
and calls those functions.  Reports are emitted in statement order; a
failed command is recorded and execution continues, while a failed
declaration aborts the remainder of the session.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .algebra import Context, GradedPoly, rho_commutator
from .cyclo import Cyclo
from .derivation import Derivation, commutator, is_homological
from .errors import BadParameter, DslSyntaxError, ResolveError, RhoError
from .geometry import (Atlas, Chart, TransitionMap, cartan_report,
                       chain_rule_check, cocycle_check, cotangent_bundle,
                       de_rham, jacobian, make_chart, schouten,
                       shifted_cotangent, tangent_bundle)
from .grading import (CommutationFactor, Degree, GroupSpec, super_factor,
                      torus_factor, trivial_factor)
from .matrix import GradedMatrix, rho_ber, rho_det, rho_tr
from .scenarios import SCENARIOS, builtin_scenarios
from .volume import (DEGREE_BOUND, VolumeForm, divergence, modular_class,
                     volumes_equivalent)

COMMANDS = {"normalize", "commutator", "det", "ber", "trace", "qcheck",
            "cartan", "schouten", "jacobian", "cocycle", "divergence",
            "modular", "equivalent", "scenarios"}

KEYWORDS = COMMANDS | {"group", "factor", "trunc", "chart", "transition",
                       "derivation", "matrix", "volume", "derham",
                       "cotangent", "bundle"}

# Fixed-shape statements.  After the keyword, a string is a literal token and
# a tuple (key, kind, *args) reads one field into the statement record with
# the reader Parser.FIELDS[kind], passing it args; a name field that is
# missing is reported as args[0] (default "a name").
_CHART = ("ctx", "name", "a chart name")
SHAPES = {
    "group": (("group", "group"), ";"),
    "transition": (("name", "name", "a transition name"), ":",
                   ("source", "name", "a chart name"), "->",
                   ("target", "name", "a chart name"), "{",
                   ("images", "bindings", "a target coordinate", "=")),
    "derham": (("name", "name", "a chart name"), "of",
               ("base", "name", "a chart name"), ";"),
    "cotangent": (("name", "name", "a chart name"), "of",
                  ("base", "name", "a chart name"), "deg", ("shift", "deg"),
                  ";"),
    "matrix": (("name", "name", "a matrix name"), "on", _CHART,
               "deg", ("degree", "deg"), "rows", ("rows", "degs"),
               "cols", ("cols", "degs"), "=", ("grid", "grid"), ";"),
    "volume": (("name", "name", "a volume name"), "on", _CHART,
               "=", ("density", "poly"), ";"),
    "normalize": (("expr", "poly"), "on", _CHART, ";"),
    "cartan": (("a", "name"), ("b", "name"), "on", _CHART, ";"),
    "schouten": ("on", ("sc", "name", "a cotangent chart name"), ":",
                 ("f", "poly"), ",", ("g", "poly"), ";"),
    "divergence": (("q", "name"), ("vol", "name"), ";"),
    "equivalent": (("a", "name"), ("b", "name"), ";"),
    "modular": (("q", "name"), ("vol", "name"), ("bound", "bound"), ";"),
    **{kw: (("target", "name"), ";")
       for kw in ("det", "ber", "trace", "jacobian", "cocycle")},
}


@dataclass
class Tok:
    kind: str       # name | int | punct | eof
    text: str
    line: int
    col: int


_PUNCT2 = ("->",)
_PUNCT1 = ";{}()[],=^*/+-:"
_DIGITS = "0123456789"  # str.isdigit also admits '²' and '٣'


def tokenize(text: str) -> list[Tok]:
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            toks.append(Tok("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            toks.append(Tok("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in _DIGITS or ch.isalpha() or ch == "_":
            # an int is a run of ASCII digits, a name a run of word characters
            kind, more = (("int", lambda c: c in _DIGITS) if ch in _DIGITS
                          else ("name", lambda c: c.isalnum() or c == "_"))
            j = i + 1
            while j < n and more(text[j]):
                j += 1
            toks.append(Tok(kind, text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(line, col, f"a token (found {ch!r})")
    toks.append(Tok("eof", "", line, col))
    return toks


def _scalar(make, arg, ctx):
    return ctx.scalar(make(arg))


def _coordinate(tok, ctx):
    _coord_index(ctx, tok)
    return ctx.gen(tok.text)


def _neg(f, ctx):
    return -f(ctx)


def _pow(f, k, ctx):
    return f(ctx) ** k


def _fold(first, rest, ctx):
    """first(ctx) folded with each (op, f) of rest as op(acc, f(ctx)), left
    to right: a loop, so no chain recurses."""
    acc = first(ctx)
    for op, f in rest:
        acc = op(acc, f(ctx))
    return acc


class Parser:
    MAX_NESTING = 100  # '(' and unary '-' levels; a '(' costs five stack frames

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing

    def peek(self) -> Tok:
        return self.toks[self.pos]

    def next(self) -> Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        raise DslSyntaxError(t.line, t.col, expected)

    def expect(self, text: str) -> Tok:
        t = self.peek()
        if t.text != text:
            self.fail(f"'{text}'")
        return self.next()

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def name(self, what="a name") -> Tok:
        t = self.peek()
        if t.kind != "name":
            self.fail(what)
        return self.next()

    def integer(self) -> int:
        neg = self.accept("-")
        t = self.peek()
        if t.kind != "int":
            self.fail("an integer")
        try:
            value = int(t.text)
        except ValueError:  # past the interpreter's digit limit
            self.fail(f"an integer of at most {sys.get_int_max_str_digits()} digits")
        self.next()
        return -value if neg else value

    def checked_integer(self, ok, what: str) -> int:
        """An integer literal; one failing `ok` is reported at its first token."""
        t = self.peek()
        value = self.integer()
        if not ok(value):
            raise DslSyntaxError(t.line, t.col, what)
        return value

    def rational(self) -> Fraction:
        num = self.integer()
        if self.accept("/"):
            return Fraction(num, self.checked_integer(bool, "a nonzero denominator"))
        return Fraction(num)

    # -- shared literals

    def items(self, item, close: str) -> list:
        """item (',' item)* close"""
        out = [item()]
        while self.accept(","):
            out.append(item())
        self.expect(close)
        return out

    def degree_literal(self) -> tuple[int, ...]:
        self.expect("(")
        if self.accept(")"):
            return ()
        return tuple(self.items(self.integer, ")"))

    def degree_tuple_literal(self) -> list[tuple[int, ...]]:
        self.expect("(")
        return self.items(self.degree_literal, ")")

    def grid(self, item) -> list[list]:
        """'[' '[' item, ... ']', ... ']'"""
        def row():
            self.expect("[")
            return self.items(item, "]")
        self.expect("[")
        return self.items(row, "]")

    # -- polynomial expressions

    def poly_expr(self):
        """term (('+' | '-') term)*"""
        f = self.poly_term()
        if self.peek().text not in ("+", "-"):
            return f
        rest = []
        while self.peek().text in ("+", "-"):
            op = GradedPoly.__add__ if self.next().text == "+" else GradedPoly.__sub__
            rest.append((op, self.poly_term()))
        return partial(_fold, f, rest)

    def poly_term(self):
        """factor ('*' factor)*"""
        f = self.poly_factor()
        if self.peek().text != "*":
            return f
        rest = []
        while self.accept("*"):
            rest.append((GradedPoly.__mul__, self.poly_factor()))
        return partial(_fold, f, rest)

    def nested(self, parse):
        """Consume the '(' or unary '-' at hand and return parse() one level
        deeper; past MAX_NESTING levels that token is a syntax error, well
        before the recursive descent could exhaust the interpreter's stack."""
        if self.depth == self.MAX_NESTING:
            self.fail(f"at most {self.MAX_NESTING} nested parentheses and unary minus signs")
        self.next()
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def poly_factor(self):
        if self.peek().text == "-":
            return partial(_neg, self.nested(self.poly_factor))
        atom = self.poly_atom()
        if self.accept("^"):
            return partial(_pow, atom, self.integer())
        return atom

    def poly_atom(self):
        t = self.peek()
        if t.kind == "int":
            return partial(_scalar, Cyclo.rational, self.rational())
        if t.text == "(":
            f = self.nested(self.poly_expr)
            self.expect(")")
            return f
        if t.kind == "name":
            self.next()
            if t.text == "zeta":
                self.expect("(")
                n = self.checked_integer(lambda n: n > 0, "a positive zeta order")
                self.expect(")")
                return partial(_scalar, Cyclo.root_of_unity, n)
            return partial(_coordinate, t)
        self.fail("a polynomial atom")

    # -- statements

    def parse_session(self) -> list[dict]:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return stmts

    def statement(self) -> dict:
        t = self.peek()
        if t.kind != "name" or t.text not in KEYWORDS:
            self.fail("a declaration or command keyword")
        start = self.pos
        self.next()
        if t.text in SHAPES:
            st = self.shape(SHAPES[t.text])
        else:
            st = getattr(self, f"stmt_{t.text}")()
        st["kind"] = t.text
        st["line"], st["col"] = t.line, t.col
        st["echo"] = self._echo(start)
        return st

    def shape(self, items) -> dict:
        st = {}
        for item in items:
            if isinstance(item, str):
                self.expect(item)
            else:
                key, kind, *what = item
                st[key] = self.FIELDS[kind](self, *what)
        return st

    def _echo(self, start: int) -> str:
        out = ""
        for tok in self.toks[start:self.pos]:
            w = tok.text
            if out and (out[-1].isalnum() or out[-1] == "_") and (w[0].isalnum() or w[0] == "_"):
                out += " "
            out += w
        return out

    def group_expr(self) -> GroupSpec:
        free = 0
        torsion = []
        while True:
            t = self.next()
            if t.text == "Z":
                if self.accept("^"):
                    # each term is checked as a group: Z^2 * Z^-1 fails
                    # as Z^-1 does, not as the sum of the ranks
                    free += GroupSpec(self.integer()).free_rank
                elif self.accept("/"):
                    torsion.append(self.checked_integer(
                        lambda v: v >= 2, "a torsion order of at least 2"))
                else:
                    free += 1
            elif t.text != "1":
                raise DslSyntaxError(t.line, t.col, "a group term (Z, Z^r, Z/n, or 1)")
            if not self.accept("*"):
                break
        return GroupSpec(free, tuple(torsion))

    def stmt_factor(self):
        t = self.name("a factor form (super, trivial, torus, phases)")
        if t.text not in ("super", "trivial", "torus", "phases"):
            raise DslSyntaxError(t.line, t.col, "super, trivial, torus or phases")
        st: dict = {"form": t.text}
        if t.text in ("torus", "phases"):
            st["matrix"] = self.grid(self.rational)
        if t.text == "phases" and self.accept("on"):
            st["on_group"] = self.group_expr()
        self.expect(";")
        return st

    def stmt_trunc(self):
        if self.accept("none"):
            val = None
        else:
            val = self.checked_integer(lambda v: v >= 0,
                                       "a nonnegative truncation order")
        self.expect(";")
        return {"value": val}

    def stmt_chart(self):
        name = self.name("a chart name")
        self.expect("{")
        coords = []
        while not self.accept("}"):
            t = self.name("'base' or 'formal'")
            if t.text not in ("base", "formal"):
                raise DslSyntaxError(t.line, t.col, "'base' or 'formal'")
            coord = {"name": self.name().text, "degree": None, "invertible": False}
            if t.text == "base":
                coord["invertible"] = self.accept("invertible")
            else:
                self.expect("deg")
                coord["degree"] = self.degree_literal()
            coords.append(coord)
            self.expect(";")
        return {"name": name, "coords": coords}

    def bindings(self, what: str, sep: str) -> list:
        """(name sep poly ';')* '}' as (name token, poly) pairs, each name once."""
        out, seen = [], set()
        while not self.accept("}"):
            v = self.name(what)
            if v.text in seen:
                raise DslSyntaxError(v.line, v.col, f"{what} not yet bound")
            seen.add(v.text)
            self.expect(sep)
            out.append((v, self.poly_expr()))
            self.expect(";")
        return out

    def bound(self) -> int | None:
        """An optional 'bound' N, N a nonnegative integer."""
        if not self.accept("bound"):
            return None
        return self.checked_integer(lambda v: v >= 0, "a nonnegative degree bound")

    FIELDS = {"name": name, "poly": poly_expr, "deg": degree_literal,
              "degs": degree_tuple_literal,
              "grid": lambda self: self.grid(self.poly_expr),
              "group": group_expr, "bindings": bindings, "bound": bound}

    def stmt_derivation(self):
        name = self.name("a derivation name")
        self.expect("on")
        ctx_tok = self.name("a chart name")
        deg = None
        if self.accept("deg"):
            deg = self.degree_literal()
        if self.accept("{"):
            comps = self.bindings("a coordinate", "->")
            return {"name": name, "ctx": ctx_tok, "degree": deg, "components": comps}
        self.expect("=")
        comps = [self.poly_term_until_dd()]
        while self.accept("+"):
            comps.append(self.poly_term_until_dd())
        self.expect(";")
        return {"name": name, "ctx": ctx_tok, "degree": deg, "sum_form": comps}

    def poly_term_until_dd(self):
        """[<poly factor> * ...] d/d<var> as (d<var> token, coefficient)."""
        factors = []
        while True:
            t = self.peek()
            if t.kind == "name" and t.text == "d" and self.toks[self.pos + 1].text == "/":
                self.next()
                self.expect("/")
                vtok = self.name("d<var>")
                if not vtok.text.startswith("d"):
                    raise DslSyntaxError(vtok.line, vtok.col, "d<var>")
                if not factors:
                    return vtok, Context.one
                return vtok, partial(_fold, factors[0], [(GradedPoly.__mul__, f)
                                                         for f in factors[1:]])
            factors.append(self.poly_factor())
            if not self.accept("*"):
                self.fail("'*' or d/d<var>")

    def stmt_bundle(self):
        name = self.name("a bundle name")
        self.expect("=")
        kindtok = self.name("'tangent' or 'cotangent'")
        if kindtok.text not in ("tangent", "cotangent"):
            raise DslSyntaxError(kindtok.line, kindtok.col, "'tangent' or 'cotangent'")
        self.expect("(")
        charts = self.items(lambda: self.name("a chart name"), ")")
        self.expect(";")
        return {"name": name, "bundle_kind": kindtok.text, "charts": charts}

    # -- commands

    def stmt_commutator(self):
        t1 = self.peek()
        if t1.kind == "name" and t1.text != "zeta" \
                and self.toks[self.pos + 1].kind == "name":
            return {"form": "derivations", **self.shape((("a", "name"), ("b", "name"), ";"))}
        return {"form": "polys", **self.shape((("f", "poly"), ",", ("g", "poly"),
                                               "on", _CHART, ";"))}

    def stmt_qcheck(self):
        t = self.name("a derivation name")
        if t.text == "d" and self.accept("on"):
            return {"form": "derham", **self.shape(("derham", "(", _CHART, ")", ";"))}
        self.expect(";")
        return {"form": "named", "target": t}

    def stmt_scenarios(self):
        which = self.name("a scenario name").text
        params = {}
        while self.peek().text != ";":
            key = self.name("a parameter").text
            self.expect("=")
            params[key] = self.rational()
        self.expect(";")
        return {"which": which, "params": params}


def parse_session(text: str) -> list[dict]:
    """Syntax pass only; raises DslSyntaxError with a source span."""
    return Parser(text).parse_session()


# -- execution ----------------------------------------------------------------------


@dataclass
class Report:
    command: str
    ok: bool
    result: object
    diagnostics: dict = field(default_factory=dict)

    def payload(self) -> dict:
        return {"command": self.command, "ok": self.ok, "result": self.result,
                "diagnostics": self.diagnostics}


@dataclass
class Session:
    truncation: int | None = 8      # the default; only `trunc N;` changes it
    group: GroupSpec | None = None
    factor: CommutationFactor | None = None
    charts: dict[str, Chart] = field(default_factory=dict)
    stars: dict[str, object] = field(default_factory=dict)
    transitions: dict[str, TransitionMap] = field(default_factory=dict)
    derivations: dict[str, Derivation] = field(default_factory=dict)
    matrices: dict[str, GradedMatrix] = field(default_factory=dict)
    volumes: dict[str, VolumeForm] = field(default_factory=dict)
    bundles: dict[str, object] = field(default_factory=dict)

    def lookup(self, kind: str, tok: Tok):
        """The object declared under tok's text in the table `kind`."""
        table = getattr(self, kind)
        if tok.text not in table:
            raise ResolveError(tok.text)
        return table[tok.text]

    def need_factor(self) -> CommutationFactor:
        if self.factor is None:
            raise ResolveError("factor (declare one before this statement)")
        return self.factor


def _coord_index(ctx: Context, tok: Tok, name: str | None = None) -> int:
    """Index of coordinate `name` (default: tok's text) in ctx; an unknown
    one is reported under tok's text, so d/dx names its dx token."""
    name = tok.text if name is None else name
    if not ctx.has(name):
        raise ResolveError(tok.text)
    return ctx.index(name)


def _coordinates(ctx: Context) -> list:
    return [(v.name, v.degree.text(), v.kind) for v in ctx.variables]


def _components(ctx: Context, comps: dict) -> dict:
    return {ctx.variables[a].name: p.text() for a, p in sorted(comps.items())}


class Runner:
    def __init__(self):
        self.session = Session()
        self.reports: list[Report] = []
        self.failed = False

    def run(self, statements: list[dict]) -> list[Report]:
        for st in statements:
            kind = st["kind"]
            handler = getattr(self, f"exec_{kind}")
            try:
                result = handler(st)
                self.reports.append(Report(st["echo"], True, result,
                                           self._diag()))
            except Exception as e:  # a fault in the program also gets a report
                known = isinstance(e, RhoError)
                info = {"error": type(e).__name__ if known else "InternalError",
                        "message": str(e) if known else f"{type(e).__name__}: {e}",
                        "line": st["line"], "col": st["col"]}
                self.reports.append(Report(st["echo"], False, info, self._diag()))
                self.failed = True
                if kind not in COMMANDS:
                    break
        return self.reports

    def _diag(self) -> dict:
        s = self.session
        return {"truncation": s.truncation,
                "conductor": s.factor.conductor if s.factor else 1}

    # -- declarations; each chart-like one registers its chart under its name

    def exec_group(self, st):
        self.session.group = st["group"]
        return {"declared": "group", "group": st["group"].describe()}

    def exec_factor(self, st):
        s = self.session
        form = st["form"]
        if form == "super":
            fac = super_factor(s.group)
        elif form == "trivial":
            fac = trivial_factor(s.group)
        elif form == "torus":
            fac = torus_factor(st["matrix"])
        else:
            group = st.get("on_group") or s.group
            if group is None:
                raise ResolveError("group (phases need a group)")
            fac = CommutationFactor(group, st["matrix"])
        s.factor = fac
        s.group = fac.group
        out = {"declared": "factor", "group": fac.group.describe(),
               "conductor": fac.conductor}
        out.update(fac.to_json())
        return out

    def exec_trunc(self, st):
        self.session.truncation = st["value"]
        return {"declared": "trunc", "value": st["value"]}

    def exec_chart(self, st):
        s = self.session
        name = st["name"].text
        fac = s.need_factor()
        coords = []
        for c in st["coords"]:
            deg = fac.group.zero() if c["degree"] is None else fac.group.degree(*c["degree"])
            coords.append((c["name"], deg, c["invertible"]))
        chart = make_chart(name, fac, coords, truncation=s.truncation)
        s.charts[name] = chart
        return {"declared": "chart", "name": name,
                "coordinates": _coordinates(chart.ctx)}

    def exec_derham(self, st):
        s = self.session
        name = st["name"].text
        dr = de_rham(s.lookup("charts", st["base"]))
        s.charts[name] = Chart(name, dr.chart.ctx)
        s.derivations[f"d_{name}"] = dr.differential
        return {"declared": "derham", "name": name,
                "differential": f"d_{name}",
                "coordinates": _coordinates(dr.chart.ctx)}

    def exec_cotangent(self, st):
        s = self.session
        name = st["name"].text
        base = s.lookup("charts", st["base"])
        shift = base.ctx.factor.group.degree(*st["shift"])
        sc = shifted_cotangent(base, shift)
        s.charts[name] = Chart(name, sc.chart.ctx)
        s.stars[name] = sc
        return {"declared": "cotangent", "name": name,
                "shift": shift.text(),
                "coordinates": _coordinates(sc.chart.ctx)}

    def exec_transition(self, st):
        s = self.session
        name = st["name"].text
        src = s.lookup("charts", st["source"])
        tgt = s.lookup("charts", st["target"])
        images = {}
        for vtok, expr in st["images"]:
            a = _coord_index(tgt.ctx, vtok)
            images[a] = expr(src.ctx)
        s.transitions[name] = TransitionMap(src, tgt, images)
        return {"declared": "transition", "name": name,
                "source": src.name, "target": tgt.name}

    def exec_derivation(self, st):
        s = self.session
        name = st["name"].text
        ctx = s.lookup("charts", st["ctx"]).ctx
        comps: dict[int, GradedPoly] = {}
        if "components" in st:
            for vtok, expr in st["components"]:
                a = _coord_index(ctx, vtok)
                comps[a] = expr(ctx)
        else:
            for vtok, expr in st["sum_form"]:
                a = _coord_index(ctx, vtok, vtok.text[1:])
                comps[a] = comps.get(a, ctx.zero()) + expr(ctx)
        degree = self._derivation_degree(st, ctx, comps)
        der = Derivation(ctx, degree, comps, name)
        s.derivations[name] = der
        return {"declared": "derivation", "name": name,
                "degree": degree.text(),
                "components": _components(ctx, der.components)}

    def _derivation_degree(self, st, ctx, comps) -> Degree:
        if st["degree"] is not None:
            return ctx.factor.group.degree(*st["degree"])
        for a, p in sorted(comps.items()):
            if not p.is_zero():
                return p.degree_of() - ctx.variables[a].degree
        return ctx.factor.group.zero()

    def exec_matrix(self, st):
        s = self.session
        name = st["name"].text
        ctx = s.lookup("charts", st["ctx"]).ctx
        g = ctx.factor.group
        rows = tuple(g.degree(*d) for d in st["rows"])
        cols = tuple(g.degree(*d) for d in st["cols"])
        degree = g.degree(*st["degree"])
        grid = [[e(ctx) for e in row] for row in st["grid"]]
        m = GradedMatrix(ctx, rows, cols, degree, grid)
        s.matrices[name] = m
        return {"declared": "matrix", "name": name,
                "rows": [d.text() for d in rows],
                "cols": [d.text() for d in cols], "degree": degree.text(),
                "entries": m.text()}

    def exec_volume(self, st):
        s = self.session
        name = st["name"].text
        chart = s.lookup("charts", st["ctx"])
        density = st["density"](chart.ctx)
        s.volumes[name] = VolumeForm.on_chart(chart, density)
        return {"declared": "volume", "name": name,
                "chart": chart.name, "density": density.text()}

    def exec_bundle(self, st):
        s = self.session
        name = st["name"].text
        charts = [s.lookup("charts", t) for t in st["charts"]]
        atlas = Atlas({c.name: c for c in charts})
        for t in s.transitions.values():
            if t.source.name in atlas.charts and t.target.name in atlas.charts:
                atlas.add(t)
        bundle = (tangent_bundle(atlas) if st["bundle_kind"] == "tangent"
                  else cotangent_bundle(atlas))
        s.bundles[name] = bundle
        return {"declared": "bundle", "name": name,
                "kind": st["bundle_kind"],
                "fibers": [d.text() for d in bundle.fiber_degrees]}

    # -- commands

    def exec_normalize(self, st):
        chart = self.session.lookup("charts", st["ctx"])
        value = st["expr"](chart.ctx)
        degs = value.degrees()
        return {"value": value.text(),
                "degree": (next(iter(degs)).text() if len(degs) == 1
                           else ("0" if not degs else "mixed"))}

    def exec_commutator(self, st):
        s = self.session
        if st["form"] == "derivations":
            x = s.lookup("derivations", st["a"])
            y = s.lookup("derivations", st["b"])
            z = commutator(x, y)
            return {"degree": z.degree.text(),
                    "components": _components(z.ctx, z.components)}
        chart = s.lookup("charts", st["ctx"])
        return {"value": rho_commutator(st["f"](chart.ctx), st["g"](chart.ctx)).text()}

    def exec_det(self, st):
        invariant = {"det": rho_det, "ber": rho_ber, "trace": rho_tr}[st["kind"]]
        return {"value": invariant(self.session.lookup("matrices", st["target"])).text()}

    exec_ber = exec_trace = exec_det

    def exec_qcheck(self, st):
        s = self.session
        if st["form"] == "derham":
            q = de_rham(s.lookup("charts", st["ctx"])).differential
        else:
            q = s.lookup("derivations", st["target"])
        check = is_homological(q)
        out = {"homological": check.homological}
        if not check.homological:
            out["reason"] = check.reason
            if check.witness_var:
                out["witness"] = {"generator": check.witness_var,
                                  "residue": check.residue.text()}
        return out

    def exec_cartan(self, st):
        s = self.session
        chart = s.lookup("charts", st["ctx"])
        a = s.lookup("derivations", st["a"])
        b = s.lookup("derivations", st["b"])
        return cartan_report(chart, a, b)

    def exec_schouten(self, st):
        sc = self.session.lookup("stars", st["sc"])
        return {"value": schouten(sc, st["f"](sc.chart.ctx), st["g"](sc.chart.ctx)).text()}

    def exec_jacobian(self, st):
        t = self.session.lookup("transitions", st["target"])
        jac = jacobian(t)
        chain = chain_rule_check(t)
        return {"matrix": jac.text(), "chain_rule_ok": chain["ok"]}

    def exec_cocycle(self, st):
        return cocycle_check(self.session.lookup("bundles", st["target"]))

    def exec_divergence(self, st):
        s = self.session
        divs = divergence(s.lookup("derivations", st["q"]),
                          s.lookup("volumes", st["vol"]))
        return {name: p.text() for name, p in sorted(divs.items())}

    def exec_modular(self, st):
        s = self.session
        q = s.lookup("derivations", st["q"])
        vol = s.lookup("volumes", st["vol"])
        bound = DEGREE_BOUND if st["bound"] is None else st["bound"]
        return modular_class(q, vol, bound).payload()

    def exec_equivalent(self, st):
        s = self.session
        flag, hs = volumes_equivalent(s.lookup("volumes", st["a"]),
                                      s.lookup("volumes", st["b"]))
        out = {"equivalent": flag}
        if flag:
            (h,) = hs.values()     # a session volume has one chart
            out["witness"] = h.text()
        return out

    def exec_scenarios(self, st):
        which = st["which"]
        params = st["params"]
        if which not in SCENARIOS and which != "all":
            raise ResolveError(which)
        for key in params:
            if which != "torus" or key not in ("m", "theta12"):
                raise BadParameter(f"scenario {which} has no parameter {key}")
        if which == "all":
            return builtin_scenarios()
        if "m" in params:
            m = params["m"]
            if m < 0 or m.denominator != 1:
                raise BadParameter(f"m must be a nonnegative integer, got {m}")
            params = {**params, "m": int(m)}
        return SCENARIOS[which](**params)[0]


def run_session(text: str):
    """Parse and execute; returns (reports, exit_ok)."""
    statements = parse_session(text)
    runner = Runner()
    reports = runner.run(statements)
    return reports, not runner.failed
