"""Session language: parsing, execution, round trips, determinism, the CLI."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import rhocalc
from rhocalc import cli
from rhocalc.algebra import poly_text
from rhocalc.dsl import Parser, Runner, parse_session, run_session, tokenize
from rhocalc.errors import DslSyntaxError

from conftest import random_poly, super_context, torus_context


def run_text(text):
    return run_session(text)


def test_parse_super_preset():
    reports, ok = run_text("group Z/2; factor super;")
    assert ok
    # presets expand to the canonical serialized phase matrix in the echo
    assert reports[1].result["phase"] == [["1/2"]]
    assert reports[1].result["free_rank"] == 0
    assert reports[1].result["torsion"] == [2]
    assert reports[1].result["conductor"] == 2


def test_super_preset_on_a_larger_group():
    # every generator of Z * Z/2 gets the phase 1/2, so w of degree (1,0)
    # is odd as well as xi
    reports, ok = run_text("group Z * Z/2; factor super; chart U { base x; "
                           "formal xi deg (0,1); formal w deg (1,0); }")
    assert ok
    fac = reports[1].result
    assert fac["phase"] == [["1/2", "0"], ["0", "1/2"]]
    assert fac["conductor"] == 2
    assert (fac["free_rank"], fac["torsion"]) == (1, [2])
    assert reports[2].result["coordinates"] == [
        ("x", "(0,0)", "base"), ("xi", "(0,1)", "odd"), ("w", "(1,0)", "odd")]


def test_super_preset_needs_even_torsion():
    # the preset puts 1/2 on every generator, which a Z/3 generator cannot
    # carry; the report names the preset, not a phase matrix never written
    reports, ok = run_text("group Z/3; factor super;")
    assert not ok
    err = reports[1].result
    assert err["error"] == "ConstraintViolation"
    assert err["message"] == "super: needs every torsion order even, not Z/3"


def test_parse_torus_phases():
    reports, ok = run_text("group Z^2; factor phases [[0,1/4],[-1/4,0]];")
    assert ok
    assert reports[1].result["conductor"] == 4


def test_constraint_violation_has_span():
    reports, ok = run_text("factor phases [[1/3]] on Z/2;")
    assert not ok
    err = reports[0].result
    assert err["error"] == "ConstraintViolation"
    assert err["line"] == 1 and err["col"] == 1


def test_empty_session():
    reports, ok = run_text("")
    assert ok and reports == []


def test_syntax_error_span_points_at_token():
    with pytest.raises(DslSyntaxError) as err:
        parse_session("group Z/2;\nchart U { bogus y; }")
    assert err.value.line == 2
    assert err.value.col == 11


def test_declaration_failure_aborts_rest():
    text = "group Z/2; factor phases [[1/3]]; normalize 1 on U;"
    reports, ok = run_text(text)
    assert not ok
    assert len(reports) == 2      # group ok, factor failed, command skipped


def test_command_failure_continues():
    text = ("group Z/2; factor super;\n"
            "chart U { formal xi deg (1); }\n"
            "det M;\n"
            "normalize xi on U;\n")
    reports, ok = run_text(text)
    assert not ok
    assert reports[-1].ok          # the later command still ran
    assert reports[-2].result["error"] == "ResolveError"


def test_qcheck_on_derham():
    text = ("group Z/2; factor super;\n"
            "chart U { base x; formal xi deg (1); }\n"
            "qcheck d on derham(U);\n")
    reports, ok = run_text(text)
    assert ok
    assert reports[-1].result == {"homological": True}


def test_scenarios_torus_command():
    reports, ok = run_text("scenarios torus m=2 theta12=1/4;")
    assert ok
    payload = reports[0].result
    assert payload["modular"]["representative"] == "-tau * eta2 - tau * eta1"
    assert payload["modular"]["verdict"] == "not_exact_degree_complete"
    assert payload["matches_closed_form"]


def test_full_session_surface():
    text = """
group Z/2; factor super;
chart U { base x; base z invertible; formal xi deg (1); formal eta deg (1); }
normalize 3/2 * zeta(8) * z^-2 * xi * eta on U;
derivation Q on U deg (1) { xi -> x; }
derivation E on U deg (0) = x * d/dx + xi * d/dxi;
commutator Q E;
commutator xi, eta on U;
qcheck Q;
cartan Q E on U;
matrix M on U deg (0) rows ((0),(0),(1),(1)) cols ((0),(0),(1),(1)) =
  [[2, 0, xi, 0],[0, 1, 0, eta],[eta, 0, 3, 0],[0, xi, 0, 1]];
ber M;
trace M;
cotangent CU of U deg (1);
schouten on CU : x_st, x;
volume v1 on U = 1;
volume v2 on U = z;
equivalent v1 v2;
derham PT of U;
volume w1 on PT = 1;
divergence d_PT w1;
modular d_PT w1;
"""
    reports, ok = run_text(text)
    for r in reports:
        assert r.ok, (r.command, r.result)

    def find(prefix):
        return next(r for r in reports if r.command.startswith(prefix))

    assert find("qcheck").result["homological"]
    assert find("equivalent").result == {"equivalent": False}
    mod = find("modular").result
    assert mod["representative"] == "0" and mod["verdict"] == "exact"
    assert find("schouten").result["value"] == "1"
    assert find("trace").result["value"] == "-1"   # 2 + 1 - 3 - 1


def test_group_one_is_the_trivial_group_term():
    # the int token 1 is a group term, as the syntax error always offered
    def results(group):
        reports, ok = run_text(f"group {group}; factor trivial;\n"
                               "chart U { base x; }\nnormalize 2 * x on U;\n")
        assert ok
        return [r.result for r in reports]

    assert results("1") == results("Z^0")
    assert results("1")[0] == {"declared": "group", "group": "1"}
    assert results("Z * 1") == results("Z")
    assert results("1 * Z/2 * 1") == results("Z/2")


@pytest.mark.parametrize("text, message", [
    ("group foo;", "line 1, col 7: expected a group term (Z, Z^r, Z/n, or 1)"),
    ("group 2;", "line 1, col 7: expected a group term (Z, Z^r, Z/n, or 1)"),
    ("group Z * ;", "line 1, col 11: expected a group term (Z, Z^r, Z/n, or 1)"),
    ("qcheck d on 5;", "line 1, col 13: expected 'derham'"),
    ("qcheck d on foo(U);", "line 1, col 13: expected 'derham'"),
])
def test_a_bad_token_gets_one_message_whatever_its_kind(text, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_session(text)
    assert str(err.value) == message


def test_transition_jacobian_cocycle_session():
    text = """
group Z/2; factor super;
chart U { base x; formal xi deg (1); formal eta deg (1); }
chart V { base y; formal vxi deg (1); formal veta deg (1); }
transition T : U -> V { y = x + xi * eta; vxi = xi; veta = eta; }
transition S : V -> U { x = y - vxi * veta; xi = vxi; eta = veta; }
jacobian T;
bundle TB = tangent(U, V);
cocycle TB;
bundle CB = cotangent(U, V);
cocycle CB;
"""
    reports, ok = run_text(text)
    for r in reports:
        assert r.ok, (r.command, r.result)
    jac = [r for r in reports if r.command.startswith("jacobian")][0]
    assert jac.result["chain_rule_ok"]
    for r in reports:
        if r.command.startswith("cocycle"):
            assert r.result["ok"]


def test_remaining_grammar_paths():
    text = """
factor torus [[0,1/8],[-1/8,0]];
trunc none;
chart T { formal u1 deg (1,0); formal u2 deg (0,1); }
normalize u2 * u1 on T;
trunc 4;
chart T2 { formal u1 deg (1,0); }
scenarios derham;
scenarios cstar;
scenarios shift;
"""
    reports, ok = run_text(text)
    assert ok
    assert reports[0].result["free_rank"] == 2
    # zeta(8)^-1 reduces to -zeta(8)^3 in the power basis
    assert reports[3].result["value"] == "-zeta(8)^3 * u1 * u2"
    assert reports[3].diagnostics["truncation"] is None
    assert reports[5].diagnostics["truncation"] == 4
    for r in reports[-3:]:
        assert r.result["matches_closed_form"]


def test_modular_bound_argument():
    text = ("group Z/2; factor super;\n"
            "chart U { base x; formal xi deg (1); }\n"
            "derham PT of U;\n"
            "volume w on PT = 1;\n"
            "modular d_PT w bound 3;\n")
    reports, ok = run_text(text)
    assert ok
    assert reports[-1].result["verdict"] == "exact"


_SUPER_U = ("group Z/2; factor super;\n"
            "chart U { base x; base z invertible; formal xi deg (1); "
            "formal eta deg (1); }\n")


def test_derivation_degree_is_inferred_without_deg():
    # the first nonzero component X^a fixes |X| = |X^a| - |x^a|; with none
    # the degree is 0
    reports, ok = run_text(_SUPER_U +
                           "derivation E on U = x * d/dx + xi * d/dxi;\n"
                           "derivation F on U = xi * d/dx;\n"
                           "derivation Z on U { xi -> 0; }\n")
    assert ok
    got = [(r.result["degree"], r.result["components"]) for r in reports[3:]]
    assert got == [("(0)", {"x": "x", "xi": "xi"}), ("(1)", {"x": "xi"}),
                   ("(0)", {})]


def test_qcheck_reports_why_a_derivation_is_not_homological():
    reports, ok = run_text(_SUPER_U +
                           "derivation Q on U deg (1) { x -> xi; xi -> x; }\n"
                           "qcheck Q;\n"
                           "derivation E on U = x * d/dx + xi * d/dxi;\n"
                           "qcheck E;\n")
    assert ok
    assert reports[4].result == {"homological": False, "reason": "square",
                                 "witness": {"generator": "x", "residue": "x"}}
    assert reports[6].result == {"homological": False, "reason": "parity"}


def test_ber_of_an_unsplit_tuple_is_a_failed_command(tmp_path):
    session = tmp_path / "unsplit.rc"
    session.write_text(_SUPER_U + "matrix M on U deg (0) rows ((1),(0)) "
                       "cols ((1),(0)) = [[1, 0],[0, 1]];\nber M;\n",
                       encoding="utf-8")
    out = _run_cli(["run", str(session), "--json"], cwd=tmp_path)
    assert out.returncode == 1, out.stderr
    last = json.loads(out.stdout)["reports"][-1]
    assert last["command"] == "ber M;" and not last["ok"]
    assert last["result"]["error"] == "NotSplitTuple"


def test_poly_text_roundtrip(rng):
    # print -> parse -> print is the identity on canonical text
    for ctx in (super_context(), torus_context()):
        runner = Runner()
        for _ in range(25):
            f = random_poly(ctx, rng)
            text = poly_text(f)
            node = Parser(text).poly_expr()
            again = node(ctx)
            assert again == f
            assert poly_text(again) == text


def test_run_determinism():
    text = "scenarios all;"
    r1, ok1 = run_text(text)
    r2, ok2 = run_text(text)
    doc1 = json.dumps([r.payload() for r in r1], sort_keys=True, default=str)
    doc2 = json.dumps([r.payload() for r in r2], sort_keys=True, default=str)
    assert ok1 and ok2 and doc1 == doc2


# the directory holding the imported package, so the child runs the same code
_SRC = str(Path(rhocalc.__file__).resolve().parents[1])


def _run_cli(args, cwd, **extra_env):
    """Run ``python -m rhocalc.cli *args`` in ``cwd``.

    The package source is prepended to the inherited ``PYTHONPATH`` as an
    absolute path, since a relative entry would resolve against ``cwd``.
    """
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "rhocalc.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_end_to_end(tmp_path):
    session = tmp_path / "s.rc"
    session.write_text("group Z/2; factor super;\n"
                       "chart U { formal xi deg (1); formal eta deg (1); }\n"
                       "normalize eta * xi on U;\n", encoding="utf-8")
    out = _run_cli(["run", str(session), "--json"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["schema"] == 1
    assert doc["reports"][-1]["result"]["value"] == "-xi * eta"
    # byte-stable across runs
    out2 = _run_cli(["run", str(session), "--json"], cwd=tmp_path)
    assert out.stdout == out2.stdout


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.rc"
    bad.write_text("group Z/2; factor phases [[1/3]];\n", encoding="utf-8")
    out = _run_cli(["run", str(bad)], cwd=tmp_path)
    # exit 1 must come from the failed declaration, not a crashed interpreter
    assert out.returncode == 1, out.stderr
    assert "== factor phases[[1/3]];\n   ERROR\n" in out.stdout
    assert '"error": "ConstraintViolation"' in out.stdout
    assert "Traceback" not in out.stderr
    syntax = tmp_path / "syn.rc"
    syntax.write_text("chart { }", encoding="utf-8")
    out2 = _run_cli(["run", str(syntax)], cwd=tmp_path)
    assert out2.returncode == 2
    assert "syntax error" in out2.stderr


def test_one_way_cotangent_bundle_is_a_failed_declaration(tmp_path, capsys):
    # the cotangent bundle needs both directions of an overlap; with only
    # T : U -> V the missing V -> U used to escape as a KeyError traceback
    session = tmp_path / "oneway.rc"
    session.write_text("group Z/2; factor super;\n"
                       "chart U { base x; formal xi deg (1); }\n"
                       "chart V { base y; formal vxi deg (1); }\n"
                       "transition T : U -> V { y = x + 2 * x; vxi = xi; }\n"
                       "bundle CB = cotangent(U, V);\n", encoding="utf-8")
    assert cli.main(["run", str(session), "--json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and err == ""
    last = json.loads(out)["reports"][-1]
    assert not last["ok"]
    assert last["result"]["error"] == "OverlapMismatch"
    assert "V to U" in last["result"]["message"]


def test_transition_across_commutation_factors_is_a_failed_declaration(
        tmp_path, capsys):
    # xi squares to 0 over the super factor, eta^2 does not over the trivial
    # one, so eta = xi is no algebra morphism, though the cocycle holds
    path = tmp_path / "mixed.rc"
    path.write_text("group Z/2; factor super;\n"
                    "chart U { base x invertible; formal xi deg (1); }\n"
                    "factor trivial;\n"
                    "chart V { base y invertible; formal eta deg (1); }\n"
                    "transition t: U -> V { y = 2*x; eta = xi; }\n"
                    "transition s: V -> U { x = 1/2*y; xi = eta; }\n"
                    "bundle B = tangent(U, V);\ncocycle B;\n", encoding="utf-8")
    assert cli.main(["run", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and err == ""
    reports = json.loads(out)["reports"]
    assert [r["ok"] for r in reports] == [True] * 5 + [False]
    assert reports[-1]["command"].startswith("transition t")
    assert reports[-1]["result"]["error"] == "ContextMismatch"
    assert reports[-1]["result"]["message"] == "charts over different commutation factors"


def test_trunc_statement_and_env(tmp_path):
    # the session's `trunc` statement is the one setter of the order: the
    # CLI reads no environment variable, so RHOCALC_TRUNC (once a second
    # setter) leaves the default 8 in place
    session = tmp_path / "t.rc"
    session.write_text("group Z/2; factor super; trunc 3;\n"
                       "chart U { formal xi deg (1); }\n", encoding="utf-8")
    out = _run_cli(["run", str(session), "--json"], cwd=tmp_path,
                   RHOCALC_TRUNC="5")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["reports"][0]["diagnostics"]["truncation"] == 8
    assert doc["reports"][-1]["diagnostics"]["truncation"] == 3


def test_printed_terms_decide_the_parentheses():
    # a coefficient is parenthesised when it prints as more than one term:
    # zeta(3) is stored as two tensor slots (zeta(3)^-1 and 1) but prints
    # as one power-basis term
    reports, ok = run_text("group Z/2; factor super;\n"
                           "chart U { base x; base z invertible; }\n"
                           "normalize zeta(3) * x on U;\n"
                           "normalize zeta(3)^2 * x on U;\n"
                           "normalize zeta(5)^4 * x + zeta(15)^7 on U;\n"
                           "normalize zeta(12)^5 * z^-1 on U;\n")
    assert ok
    assert [r.result["value"] for r in reports[3:]] == [
        "zeta(3) * x",
        "(-1 - zeta(3)) * x",
        "zeta(15)^7 + (-1 - zeta(5) - zeta(5)^2 - zeta(5)^3) * x",
        "(-zeta(12) + zeta(12)^3) * z^-1"]


def test_cli_prints_values_past_the_int_str_digit_limit(tmp_path):
    # each literal is within the tokenizer's digit limit; the products are
    # 8000 digits long, (10^4000 - 1)^2 = 9..980..01
    nines = "9" * 4000
    square = "9" * 3999 + "8" + "0" * 3999 + "1"
    session = tmp_path / "big.rc"
    session.write_text(
        "group Z/2; factor super;\nchart U { base x; formal xi deg (1); }\n"
        f"normalize {nines} * {nines} * x on U;\n"
        f"normalize {nines} * {nines} * zeta(8) * x on U;\n"
        f"normalize 1/{nines} * 1/{nines} * x on U;\n", encoding="utf-8")
    out = _run_cli(["run", str(session)], cwd=tmp_path)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stderr == ""
    values = [json.loads(line)["value"] for line in out.stdout.splitlines()
              if '"value"' in line]
    assert values == [f"{square} * x", f"{square}*zeta(8) * x",
                      f"1/{square} * x"]


_U = "group Z/2; factor super;\nchart U { base x; formal xi deg (1); }\n"


@pytest.mark.parametrize("text, code, error, where", [
    # literals the grammar admits but the model rejects: exit 2 at the literal
    (_U + "normalize 1/0 on U;", 2, "expected a nonzero denominator",
     "line 3, col 13"),
    ("factor phases [[1/0]] on Z/2;", 2, "expected a nonzero denominator",
     "line 1, col 19"),
    ("scenarios torus m=1/0;", 2, "expected a nonzero denominator",
     "line 1, col 21"),
    (_U + "normalize zeta(0) * x on U;", 2, "expected a positive zeta order",
     "line 3, col 16"),
    (_U + "normalize zeta(-3) on U;", 2, "expected a positive zeta order",
     "line 3, col 16"),
    ("trunc -1;", 2, "expected a nonnegative truncation order", "line 1, col 7"),
    (_U + "modular d_PT w bound -3;", 2, "expected a nonnegative degree bound",
     "line 3, col 22"),
    # only ASCII digits make an integer, and one past int()'s digit limit
    # is reported at the literal
    (_U + "normalize x^² on U;", 2, "expected a token (found '²')",
     "line 3, col 13"),
    (_U + "normalize ٣ * x on U;", 2, "expected a token (found '٣')",
     "line 3, col 11"),
    pytest.param(_U + "normalize x + 1" + "0" * 5000 + " on U;", 2,
                 "expected an integer of at most", "line 3, col 15",
                 id="5001-digit-literal"),
    ("group Z/1;", 2, "expected a torsion order of at least 2", "line 1, col 9"),
    ("group Z/0;", 2, "expected a torsion order of at least 2", "line 1, col 9"),
    # a RhoError raised while parsing is a one-line exit 2 as well
    ("group Z^-1;", 2, "ConstraintViolation: free_rank", ""),
    ("group Z^2 * Z^-1;", 2, "ConstraintViolation: free_rank", ""),
    # a coordinate bound twice in one block is refused at its second name;
    # the derivation sum form still adds its terms (see below)
    (_U + "derivation Q on U deg (1) { xi -> x; xi -> x * xi; }", 2,
     "expected a coordinate not yet bound", "line 3, col 38"),
    ("group Z/2; factor super;\nchart U { base x; base z; }\nchart V { base y; }\n"
     "transition T : U -> V { y = x; y = z; }", 2,
     "expected a target coordinate not yet bound", "line 4, col 32"),
    # scenario parameters are checked when the command runs: exit 1
    ("scenarios torus m=1/2;", 1, '"error": "BadParameter"', ""),
    ("scenarios torus m=-1;", 1, '"error": "BadParameter"', ""),
    ("scenarios torus n=2;", 1, '"error": "BadParameter"', ""),
    ("scenarios derham m=2;", 1, '"error": "BadParameter"', ""),
    # and so is the scenario name
    ("scenarios foo;", 1, '"error": "ResolveError"', ""),
])
def test_cli_rejects_bad_literals_without_traceback(tmp_path, capsys, text,
                                                    code, error, where):
    path = tmp_path / "probe.rc"
    path.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["run", str(path)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("rhocalc: ") and error in err and where in err
    else:
        assert err == "" and error in out and "   ERROR\n" in out


def test_statements_out_of_order_and_malformed_derivation_terms():
    # a chart before any factor and phases before any group fail their
    # declaration; a bare d/dx is the coefficient 1, and a sum form adds
    # two terms on one coordinate; d / x and normal(U) are syntax errors
    reports, ok = run_text("chart U { base x; }")
    assert not ok and reports[0].result["message"] == \
        "undeclared name: factor (declare one before this statement)"
    reports, ok = run_text("factor phases [[1/2]];")
    assert not ok and reports[0].result["message"] == \
        "undeclared name: group (phases need a group)"
    reports, ok = run_text(_U + "derivation X on U = d/dx + x * d/dx;")
    assert ok and reports[-1].result["components"] == {"x": "1 + x"}
    for text, col in ((_U + "derivation X on U = d / x;", 25),
                      (_U + "bundle B = normal(U);", 12)):
        with pytest.raises(DslSyntaxError) as err:
            parse_session(text)
        assert (err.value.line, err.value.col) == (3, col)
    assert err.value.expected == "'tangent' or 'cotangent'"


def test_normalize_prints_a_rational_past_the_int_str_digit_limit():
    # in process: (10^2200 - 1)^2 has 4,400 digits, past the default limit
    # of 4,300, and prints in 1000-digit chunks
    nines = "9" * 2200
    square = "9" * 2199 + "8" + "0" * 2199 + "1"
    assert len(square) > sys.get_int_max_str_digits() > 0
    reports, ok = run_text(_U + f"normalize {nines} * {nines} * x on U;\n"
                           f"normalize -1/{nines} * 1/{nines} on U;")
    assert ok
    assert [r.result["value"] for r in reports[3:]] == [f"{square} * x",
                                                        f"-1/{square}"]


def _mutants(text, count, seed):
    """Seeded token mutations of text: delete, replace, swap or insert a
    token, or set an integer literal to a boundary value."""
    toks = [t for t in tokenize(text) if t.kind != "eof"]
    pool = sorted({t.text for t in toks} | {"0", "-1", "/", "^", "Z", "none"})
    ints = [k for k, t in enumerate(toks) if t.kind == "int"]
    rng = random.Random(seed)
    for _ in range(count):
        words = [(t.line, t.text) for t in toks]
        for op in rng.choice(("n", "r", "d", "s", "i", "nn", "rr", "dd", "si")):
            k = rng.randrange(len(words) - 1)
            line = words[k][0]
            if op == "n":
                k = rng.choice(ints)
                words[k] = (words[k][0], rng.choice(("0", "1", "-1")))
            elif op == "d":
                del words[k]
            elif op == "r":
                words[k] = (line, rng.choice(pool))
            elif op == "s":
                words[k], words[k + 1] = words[k + 1], words[k]
            else:
                words.insert(k, (line, rng.choice(pool)))
        lines = [[] for _ in range(toks[-1].line)]
        for line, w in words:
            lines[line - 1].append(w)
        yield "\n".join(" ".join(ws) for ws in lines) + "\n"


def test_cli_survives_mutated_demo(tmp_path, capsys):
    demo = Path(__file__).resolve().parents[1] / "sessions" / "demo.rc"
    text = demo.read_text(encoding="utf-8").replace("scenarios all;", "")
    path = tmp_path / "mutant.rc"
    codes = set()
    for mutant in _mutants(text, 400, seed=3):
        path.write_text(mutant, encoding="utf-8")
        code = cli.main(["run", str(path)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), mutant
        assert "Traceback" not in err, mutant
        codes.add(code)
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("expr, code, value", [
    # long chains are evaluated down their left spine, not by recursion
    pytest.param("+".join(["x"] * 1000), 0, "1000 * x", id="sum-1000"),
    pytest.param("*".join(["x"] * 1000), 0, "x^1000", id="product-1000"),
    pytest.param("(" * 100 + "x" + ")" * 100, 0, "x", id="parens-100"),
    pytest.param("-" * 100 + "x", 0, "x", id="minus-100"),
    # nesting past the parser's limit is a syntax error at the 101st level
    pytest.param("(" * 101 + "x" + ")" * 101, 2, "line 3, col 111",
                 id="parens-101"),
    pytest.param("(" * 260 + "x" + ")" * 260, 2, "line 3, col 111",
                 id="parens-260"),
    pytest.param("-" * 1000 + "x", 2, "line 3, col 111", id="minus-1000"),
    pytest.param("-(" * 500 + "x" + ")" * 500, 2, "line 3, col 111",
                 id="minus-parens-500"),
])
def test_cli_long_and_deep_expressions_without_traceback(tmp_path, capsys,
                                                         expr, code, value):
    path = tmp_path / "deep.rc"
    path.write_text(_U + f"normalize {expr} on U;\n", encoding="utf-8")
    assert cli.main(["run", str(path)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 0:
        assert err == "" and f'"value": "{value}"' in out
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith("rhocalc: syntax error: " + value)
        assert "expected at most 100 nested parentheses" in err


@pytest.mark.parametrize("args, env", [
    pytest.param(["--trunc", "6"], {}, id="flag-valid"),
    pytest.param(["--trunc", "-1"], {}, id="flag-negative"),
    pytest.param(["--trunc", "abc"], {}, id="flag-text"),
    pytest.param([], {"RHOCALC_TRUNC": "-1"}, id="env-negative"),
    pytest.param([], {"RHOCALC_TRUNC": "abc"}, id="env-text"),
])
def test_cli_rejects_a_bad_truncation(tmp_path, args, env):
    # a negative order used to truncate (1 + x*xi)*(1 + xi) to 0, and a
    # non-integer RHOCALC_TRUNC quietly became 8. The order is now set by
    # the session's `trunc` statement only: --trunc is no option, so argparse
    # rejects it before anything runs, and RHOCALC_TRUNC is not read, so the
    # run prints exactly what it prints without the variable
    session = tmp_path / "t.rc"
    session.write_text(_U + "normalize (1 + x*xi)*(1 + xi) on U;\n",
                       encoding="utf-8")
    out = _run_cli(["run", str(session), *args], cwd=tmp_path, **env)
    assert "Traceback" not in out.stderr
    if args:
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("usage: rhocalc")
        assert "unrecognized arguments: --trunc" in out.stderr
    else:
        clean = _run_cli(["run", str(session)], cwd=tmp_path)
        assert (out.returncode, out.stdout, out.stderr) == (
            0, clean.stdout, "")
        assert clean.returncode == 0 and clean.stdout


def test_cli_undecodable_file_cannot_be_read(tmp_path):
    # invalid UTF-8 used to escape `except OSError` as a traceback, exit 1
    session = tmp_path / "bad.rc"
    session.write_bytes(b"group Z/2;\xff\n")
    out = _run_cli(["run", str(session)], cwd=tmp_path)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith(f"rhocalc: cannot read {session}: 'utf-8' codec")
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_unprintable_conductor_is_a_failed_factor(tmp_path, as_json):
    # a conductor of about 5000 digits is past the interpreter's int-to-text
    # limit; the factor refuses it, so the statement fails with a report
    # instead of the printing failing outside any statement
    a, b = 10 ** 2500 + 1, 10 ** 2500 + 3
    session = tmp_path / "big.rc"
    session.write_text(f"factor torus [[0,1/{a},1/{b}],[-1/{a},0,0],[-1/{b},0,0]];\n",
                       encoding="utf-8")
    out = _run_cli(["run", str(session), *(["--json"] if as_json else [])],
                   cwd=tmp_path)
    assert out.returncode == 1
    assert out.stderr == ""
    message = f"conductor: more than {sys.get_int_max_str_digits()} digits"
    if as_json:
        (report,) = json.loads(out.stdout)["reports"]
        assert report["ok"] is False
        assert report["result"]["error"] == "ConstraintViolation"
        assert report["result"]["message"].startswith(message)
    else:
        assert "ERROR" in out.stdout and message in out.stdout


def test_dsl_session_digests_match_bench_references(tmp_path, monkeypatch):
    # every dsl_session task of the benchmark, run through cli.main, against
    # the output digests stored under bench/
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "bench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    rc = {"cli": cli}
    for seed in (1, 2):
        refs = checks.load_references("dsl_session", seed)
        data = workloads.make_data("dsl_session", seed, str(root))
        paths = workloads.build(rc, "dsl_session", data,
                                str(tmp_path / f"seed{seed}"))
        assert len(refs) == len(data)
        for task, path in zip(data, paths):
            result = workloads.RUNNERS["dsl_session"](rc, task, path)
            text = workloads.TEXTS["dsl_session"](result)
            assert checks.digest(text) == refs[task["id"]], (seed, task["id"])


def test_demo_text_matches_golden(tmp_path):
    # the text form of the demo, pinned byte for byte (--json is pinned by
    # the bench digests above)
    root = Path(__file__).resolve().parents[1]
    out = _run_cli(["run", str(root / "sessions" / "demo.rc")], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    golden = Path(__file__).parent / "golden" / "demo.txt"
    assert out.stdout.encode("utf-8") == golden.read_bytes()


@pytest.mark.parametrize("handler, stops", [
    pytest.param("exec_normalize", False, id="command"),
    pytest.param("exec_derivation", True, id="declaration"),
])
def test_internal_error_is_a_failed_report(tmp_path, capsys, monkeypatch,
                                           handler, stops):
    def broken(self, st):
        raise KeyError("lost")

    monkeypatch.setattr(Runner, handler, broken)
    path = tmp_path / "s.rc"
    path.write_text("group Z/2; factor super;\n"
                    "chart U { base x; formal xi deg (1); formal eta deg (1); }\n"
                    "derivation Q on U deg (1) { xi -> x; }\n"
                    "normalize eta * xi on U;\nqcheck d on derham(U);\n",
                    encoding="utf-8")
    assert cli.main(["run", str(path), "--json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err and err == ""
    reports = json.loads(out)["reports"]
    bad = [r for r in reports if not r["ok"]]
    assert len(bad) == 1
    assert bad[0]["result"]["error"] == "InternalError"
    assert bad[0]["result"]["message"] == "KeyError: 'lost'"
    assert {"line", "col"} <= set(bad[0]["result"])
    # a failed declaration ends the run; a failed command does not
    assert (reports[-1] is bad[0]) == stops


def test_session_builds_each_jacobian_once(monkeypatch):
    # jacobian, its chain rule check and the tangent bundle share one matrix
    geometry = rhocalc.geometry
    calls = []
    gradients = geometry.gradients

    def counting(ctx, polys):
        calls.append([id(p) for p in polys])
        return gradients(ctx, polys)

    monkeypatch.setattr(geometry, "gradients", counting)
    text = """
group Z/2; factor super;
chart U { base x; formal xi deg (1); formal eta deg (1); }
chart V { base y; formal vxi deg (1); formal veta deg (1); }
transition T : U -> V { y = x + xi * eta; vxi = xi; veta = eta; }
transition S : V -> U { x = y - vxi * veta; xi = vxi; eta = veta; }
jacobian T;
bundle TB = tangent(U, V);
cocycle TB;
jacobian T;
"""
    runner = Runner()
    reports = runner.run(parse_session(text))
    assert all(r.ok for r in reports), [r.result for r in reports if not r.ok]
    t = runner.session.transitions["T"]
    images = [id(t.images[a]) for a in range(len(t.images))]
    assert calls.count(images) == 1
