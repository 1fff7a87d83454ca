import contextlib
import json
import sys
import textwrap

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdsolve import cli, oracle
from fdsolve.expr import SequenceExpr
from fdsolve.parser import parse_expression

from corpus import GOLDEN_EQUATIONS, GOLDEN_PARTICULARS
from test_algebra import run_bounded


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@contextlib.contextmanager
def digit_cap(n):
    """Python's int-to-str digit cap set to n (0 lifts it) within the block, where
    there is a cap; the cap before it comes back after."""
    before = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if before is not None:
        sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


class TestSolveCommand:
    @pytest.mark.parametrize("src,expected",
                             list(zip(GOLDEN_EQUATIONS, GOLDEN_PARTICULARS)))
    def test_text_particular_line(self, capsys, src, expected):
        code, out, err = run(capsys, "solve", src)
        assert code == cli.EXIT_OK
        assert err == ""
        assert f"particular:  {expected}\n" in out

    def test_homogeneous_and_constants(self, capsys):
        code, out, _ = run(capsys, "solve", "y(t+2) - 5y(t+1) + 6y(t) = 0",
                           "--initial", "y(0)=0, y(1)=1")
        assert code == 0
        assert "homogeneous: 2^t, 3^t" in out
        assert "constants:   c1 = -1, c2 = 1" in out
        assert "general:     -2^t + 3^t" in out

    def test_trace_flag(self, capsys):
        code, out, _ = run(capsys, "solve", GOLDEN_EQUATIONS[3], "--trace")
        assert code == 0
        assert "trace:" in out
        assert "[shift-theorem]" in out
        assert "[propagation]" in out

    def test_verify_flag_ok(self, capsys):
        code, out, _ = run(capsys, "solve", GOLDEN_EQUATIONS[0], "--verify", "10")
        assert code == 0
        assert "verification: exact-match over t in [-10, 10] (forward-apply)" in out

    def test_verify_flag_bare_uses_default_horizon(self, capsys):
        code, out, _ = run(capsys, "solve", GOLDEN_EQUATIONS[0], "--verify")
        assert code == 0
        assert "t in [-50, 50]" in out

    def test_json_document(self, capsys):
        code, out, _ = run(capsys, "solve", GOLDEN_EQUATIONS[0],
                           "--initial", "y(0)=1, y(1)=2",
                           "--verify", "10", "--trace", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["equation"] == "y(t+2) - 5*y(t+1) + 4*y(t) = 3^t"
        assert doc["input"]["initial"] == [[0, "1"], [1, "2"]]
        assert doc["operator"] == ["1", "-5", "4"]
        assert doc["particular"] == "-1/2 * 3^t"
        assert doc["homogeneous"] == [{"type": "exact", "expr": "1"},
                                      {"type": "exact", "expr": "4^t"}]
        assert doc["constants"] == ["5/6", "2/3"]
        assert doc["verification"]["status"] == "exact-match"
        assert doc["verification"]["method"] == "forward-apply+iterate"
        assert [s["rule"] for s in doc["trace"]] == ["power-rule"]
        # every rendered expression in the document re-parses
        reparsed = parse_expression(doc["particular"])
        assert reparsed.render(pretty=True) == doc["particular"]
        general = parse_expression(doc["general"])
        assert general.eval_at(0) == 1 and general.eval_at(1) == 2

    def test_json_numeric_modes(self, capsys):
        code, out, _ = run(capsys, "solve", "y(t+2) - y(t+1) - y(t) = 0",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        kinds = [(m["type"], m["kind"]) for m in doc["homogeneous"]]
        assert kinds == [("numeric", "cos"), ("numeric", "cos")]
        assert doc["constants"] is None
        assert "general" not in doc

    def test_empty_basis_text(self, capsys):
        code, out, _ = run(capsys, "solve", "y(t+2) = 3^t")
        assert code == 0
        assert "homogeneous: (empty basis)" in out

    def test_empty_basis_fit_prints_no_constants(self, capsys):
        # T has only the root 0, so the fit has no constants to print
        code, out, _ = run(capsys, "solve", "y(t+1) = 1", "--initial", "y(0)=1")
        assert code == 0
        assert "constants:   (none)\n" in out
        code, out, _ = run(capsys, "solve", "y(t+1) = 1", "--initial", "y(0)=1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["constants"] == []


class TestApplyCommand:
    def test_text(self, capsys):
        code, out, err = run(capsys, "apply", "T^2 - 5*T + 4", "-1/2 * 3^t")
        assert (code, err) == (0, "")
        assert out == "3^t\n"

    def test_annihilation(self, capsys):
        code, out, _ = run(capsys, "apply", "T - 2", "2^t")
        assert code == 0
        assert out == "0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "apply", "T - 1", "t^2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["operator"] == "T - 1"
        assert doc["result"] == "2*t + 1"

    @pytest.mark.parametrize("argv,err", [
        (("T", "x"), "error: at byte 0: expected one of t, cos, sin\n  x\n  ^\n"),
        (("x", "1"), "error: at byte 0: expected one of T, cos, sin\n  x\n  ^\n"),
        (("T^2 -", "1"),
         "error: at byte 5: expected a number, 'T', 'cos(', 'sin(', or '('\n  T^2 -\n       ^\n"),
    ], ids=["expression", "operator", "operator-end"])
    def test_parse_errors_offer_no_y(self, capsys, argv, err):
        # expressions and operators reject y, so their messages do not offer it
        assert run(capsys, "apply", *argv) == (cli.EXIT_PARSE, "", err)

    def test_equation_errors_offer_y(self, capsys):
        code, _, err = run(capsys, "solve", "y(t+1) - y(t) = x")
        assert code == cli.EXIT_PARSE
        assert "expected one of y, t, cos, sin" in err
        code, _, err = run(capsys, "solve", "y(t+1) - y(t) = 1 +")
        assert "expected a number, 't', 'y(', 'cos(', 'sin(', or '('" in err


def test_text_mode_renders_only_what_it_prints(capsys, monkeypatch):
    # text output is the result or the report alone; the JSON document with
    # the plain-rendered inputs is built only for --format json
    render = SequenceExpr.render

    def pretty_only(self, pretty=False):
        assert pretty, "plain render in text mode"
        return render(self, pretty)

    monkeypatch.setattr(SequenceExpr, "render", pretty_only)
    assert run(capsys, "apply", "T - 2", "3^t") == (0, "3^t\n", "")
    assert run(capsys, "verify", "y(t+1) - y(t) = 0", "1") == (
        0, "exact-match over t in [-50, 50] (forward-apply)\n", "")


class TestVerifyCommand:
    def test_accepts_correct_solution(self, capsys):
        code, out, _ = run(capsys, "verify", GOLDEN_EQUATIONS[0], "-1/2 * 3^t")
        assert code == cli.EXIT_OK
        assert "exact-match" in out

    def test_rejects_wrong_solution(self, capsys):
        code, out, _ = run(capsys, "verify", GOLDEN_EQUATIONS[0], "-1/3 * 3^t")
        assert code == cli.EXIT_VERIFY
        assert "mismatch at t=0: expected 1, got 2/3" in out

    def test_json_mismatch_fields(self, capsys):
        code, out, _ = run(capsys, "verify", GOLDEN_EQUATIONS[0], "-1/3 * 3^t",
                           "--format", "json")
        assert code == 3
        doc = json.loads(out)
        v = doc["verification"]
        assert v["status"] == "mismatch"
        assert v["mismatch_t"] == 0
        assert v["expected"] == "1" and v["got"] == "2/3"

    def test_horizon_flag(self, capsys):
        code, out, _ = run(capsys, "verify", GOLDEN_EQUATIONS[0], "-1/2 * 3^t",
                           "--horizon", "7")
        assert code == 0
        assert "t in [-7, 7]" in out

    def test_general_with_initial(self, capsys):
        code, out, _ = run(capsys, "verify", "y(t+1) - 2y(t) = 0", "3 * 2^t",
                           "--initial", "y(0)=3")
        assert code == 0
        assert "forward-apply+iterate" in out


class TestExitCodes:
    def test_exponent_tower_on_t_is_refused(self, capsys):
        # 2^t^2 is 2^(t^2), outside the closed-form class; it was solved as 4^t
        message = ("error: at byte 18: expected an integer exponent, 't', "
                   "or '(a*t + b)' with integers a, b")
        for rhs in ("2^t^2", "2^(t^2)"):
            code, out, err = run(capsys, "solve", f"y(t+1) - y(t) = {rhs}")
            assert (code, out, err.splitlines()[0]) == (cli.EXIT_PARSE, "", message)

    def test_operator_degree_is_bounded(self):
        # y(t+100000) - y(t) = 1 ran without end: the operator has degree at most 200,
        # counted after negative shifts are normalized away, whatever the shifts' span
        out = run_bounded(textwrap.dedent("""
            import contextlib, io
            from fdsolve import cli
            for eq in ("y(t+100000) - y(t) = 1", "y(t+200) - y(t) = 1",
                       "y(t+100) - y(t-101) = 1", "y(t+100000) - y(t+99999) = 1",
                       "y(t+100000) = 1", "y(t+201) - y(t+1) = 1"):
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(["solve", eq])
                print(code, err.getvalue().partition("\\n")[0])
            """))
        assert out.splitlines() == [
            "1 error: at byte 19: expected an operator of degree at most 200",
            "0 ",
            "1 error: at byte 20: expected an operator of degree at most 200",
            "1 error: at byte 25: expected an operator of degree at most 200",
            "1 error: at byte 12: expected an operator of degree at most 200",
            "1 error: at byte 18: expected an operator of degree at most 200",
        ]

    def test_parse_error_reports_position(self, capsys):
        code, out, err = run(capsys, "solve", "y(t+2) - 5y(t+1) @ 4y(t) = 3^t")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert "byte 17" in err
        assert "^" in err

    def test_caret_under_offending_character(self, capsys):
        _, _, err = run(capsys, "solve", "y(t+1) + = 3")
        lines = err.splitlines()
        snippet = next(l for l in lines if l.strip().endswith("= 3"))
        caret = lines[lines.index(snippet) + 1]
        assert caret.index("^") == snippet.index("=")

    def test_unsupported_rhs(self, capsys):
        code, _, err = run(capsys, "solve", "y(t+1) - y(t) = t^t")
        assert code == cli.EXIT_UNSUPPORTED
        assert "unsupported right-hand side" in err

    def test_verify_mismatch_code(self, capsys):
        code, _, _ = run(capsys, "verify", GOLDEN_EQUATIONS[0], "3^t")
        assert code == cli.EXIT_VERIFY

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "solve")
        assert code == cli.EXIT_PARSE
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "shred", "everything")
        assert code == cli.EXIT_PARSE
        assert "usage error" in err

    def test_numbers_past_4300_digits_print_in_full(self, capsys):
        # Python caps int-to-str conversion at 4300 digits unless main lifts it
        results = [run(capsys, "solve", "y(t+1) - 2y(t) = 2^14300"),
                   run(capsys, "apply", "T - 2", "2^14300"),
                   run(capsys, "verify", "y(t+1) - y(t) = 0", "2^14300", "--format", "json")]
        assert [code for code, _, _ in results] == [cli.EXIT_OK] * 3
        with digit_cap(0):
            digits = str(2**14300)
        assert len(digits) == 4305
        (_, solved, _), (_, applied, _), (_, verified, _) = results
        assert f"particular:  -{digits}\n" in solved
        assert applied == f"-{digits}\n"
        assert json.loads(verified)["input"]["solution"] == digits

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit cap")
    @pytest.mark.parametrize("cap", [4300, 5000])
    @pytest.mark.parametrize("argv,code", [
        (["solve", "y(t+1) - 2y(t) = 2^14300"], cli.EXIT_OK),
        (["solve", "y(t+1) * y(t) = 1"], cli.EXIT_PARSE),
        (["shred"], cli.EXIT_PARSE),
    ])
    def test_main_restores_the_callers_digit_cap(self, capsys, cap, argv, code):
        with digit_cap(cap):
            assert run(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == cap

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit cap")
    def test_digit_cap_restored_when_main_raises(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "_cmd_solve", interrupted)
        with digit_cap(4300):
            with pytest.raises(KeyboardInterrupt):
                cli.main(["solve", "y(t+1) - y(t) = 1"])
            assert sys.get_int_max_str_digits() == 4300

    def test_semantic_error_is_parse_exit(self, capsys):
        code, _, err = run(capsys, "solve", "y(t+1) * y(t) = 1")
        assert code == cli.EXIT_PARSE
        assert "byte 7" in err

    def test_inconsistent_conditions(self, capsys):
        code, _, err = run(capsys, "solve", "y(t+2) - 2y(t+1) = 0",
                           "--initial", "y(0)=1, y(1)=0")
        assert code == cli.EXIT_PARSE
        assert "error" in err

    def test_condition_count_mismatch(self, capsys):
        code, _, err = run(capsys, "solve", "y(t+1) - 2y(t) = 0",
                           "--initial", "y(0)=1, y(1)=2")
        assert code == cli.EXIT_PARSE
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["solve", "y(t+1) - 2y(t) = 1", "--initial", "y(0)=1", "--verify", "-5"],
        ["verify", "y(t+1) - 2y(t) = 1", "-1", "--horizon", "-3"],
    ])
    def test_negative_horizon(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == f"error: verification horizon must be >= 0, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv,offset", [
        (["solve", "y(t+1) - y(t) = " + "(" * 300 + "1" + ")" * 300], 116),
        (["apply", "(" * 300 + "T" + ")" * 300 + " - 2", "t"], 100),
        (["apply", "T - 2", "(" * 300 + "t" + ")" * 300], 100),
        (["verify", "y(t+1) - y(t) = 1", "(" * 300 + "t" + ")" * 300], 100),
    ], ids=["equation", "operator", "expression", "solution"])
    def test_deep_nesting_is_parse_error(self, capsys, argv, offset):
        # past 100 levels the recursive descent would run out of stack
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith(f"error: at byte {offset}: expected at most 100 nested "
                              "parentheses\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "y(t+1) - 2y(t) = 1", "--verify", "100001"],
        ["verify", "y(t+1) - 2y(t) = 1", "-1", "--horizon", "100001"],
    ])
    def test_horizon_past_the_cap(self, capsys, monkeypatch, argv):
        # refused before any value table is built: 10^8 ran out of memory
        def no_table(*args):
            raise AssertionError("a value table was built")
        monkeypatch.setattr(oracle, "_numerators", no_table)
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == "error: verification horizon must be at most 100000, got 100001\n"

    def test_horizon_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "y(t+1) - 2y(t) = 1", "-1", "--horizon", "100000")
        assert code == cli.EXIT_OK
        assert out == "exact-match over t in [-100000, 100000] (forward-apply)\n"

    def test_iterate_tables_past_the_bit_bound(self):
        # y = 3 - 2*(1/2)^t: its tables over 2^100000 ran out of 1 GiB after about 9 s
        out = run_bounded(textwrap.dedent("""
            import contextlib, io, time
            from fdsolve import cli
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["solve", "2y(t+2) - 3y(t+1) + y(t) = 0",
                                 "--initial", "y(0)=1, y(1)=2", "--verify", "100000"])
            print(code, time.perf_counter() - start < 1)
            print(err.getvalue(), end="")
            """))
        assert out == ("1 True\nerror: verification horizon 100000 needs iterate tables of "
                       "about 2384 MiB, over the limit of 512 MiB\n")

    def test_zero_constant_modes_take_no_tables(self):
        # y = 1 with c1 = 0 on (1/2)^t: no table over 2^100000 is built, so none is counted
        out = run_bounded(textwrap.dedent("""
            from fdsolve import cli
            code = cli.main(["solve", "2y(t+2) - 3y(t+1) + y(t) = 0",
                             "--initial", "y(0)=1, y(1)=1", "--verify", "100000"])
            print(code)
            """))
        assert out.endswith("verification: exact-match over t in [-100000, 100000] "
                            "(forward-apply+iterate)\n0\n")

    @pytest.mark.parametrize("argv,code,message", [
        (["solve", "y(t+1) - 2y(t) = 2^(2^(2^(2^(2^2))))"], 2,
         "unsupported right-hand side: a power too large to compute"),
        (["solve", "y(t+1) - 2y(t) = t^(2^20)"], 2,
         "unsupported right-hand side: a power too large to compute"),
        (["apply", "T^(2^20)", "1"], 1,
         "error: at byte 2: expected a polynomial in T (a power too large to compute"),
    ])
    def test_power_past_the_size_limits(self, argv, code, message):
        # the tower ran without end and t^(2^20) built a degree-10^6 polynomial
        out = run_bounded(f"argv = {argv!r}\n" + textwrap.dedent("""
            import contextlib, io, time
            from fdsolve import cli
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(argv)
            print(code, time.perf_counter() - start < 5)
            print(err.getvalue())
            """))
        assert out.startswith(f"{code} True\n{message} (over 4001 coefficients or numbers "
                              "over 2^20 bits)")

    def test_apply_past_the_work_bound(self):
        # (T+1)^100 on t^1000 took 22 s: 100 Taylor shifts of a degree-1000 payload
        out = run_bounded(textwrap.dedent("""
            import contextlib, io, time
            from fdsolve import cli
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main(["apply", "(T+1)^100", "t^1000"])
            print(code, time.perf_counter() - start < 5)
            print(err.getvalue(), end="")
            """))
        assert out == ("1 True\nerror: applying the operator takes about 100200100 shift "
                       "steps, over the limit of 20000000\n")

    def test_float_overflow_in_fit(self, capsys):
        code, out, err = run(capsys, "solve", "y(t+2) - y(t+1) - y(t) = 0",
                             "--initial", "y(-2000)=1, y(-1999)=1")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == ("error: float overflow evaluating the basis at the initial "
                       "values; constants not determined\n")

    def test_float_overflow_in_iteration(self, capsys):
        # the fit at t = 2040, 2041 is in range, but sqrt(2)^t is not at t = 2048
        code, out, err = run(capsys, "solve", "y(t+2) - 2y(t) = 0",
                             "--initial", "y(2040)=1, y(2041)=3", "--verify")
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err == ("error: the general solution leaves the float range at t=2048; "
                       "iteration not compared\n")

    def test_broken_invariant_is_internal_error(self, capsys, monkeypatch):
        # a failure inside the solver that is not a documented error is exit 4
        def broken(eq):
            raise RuntimeError("broken invariant")
        monkeypatch.setattr(cli, "solve", broken)
        code, out, err = run(capsys, "solve", GOLDEN_EQUATIONS[0])
        assert code == cli.EXIT_INTERNAL
        assert out == ""
        assert err.startswith("internal error: RuntimeError: broken invariant")


# ---- fuzz gate: any string gets a documented exit code in bounded time ----

FUZZ_TOKENS = [*"0123456789", "t", "T", "y(", "^", "(", ")", "cos(pi*t)", "=", "+", "-",
               "*", "/"]
token_soup = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=16).map("".join)
towers = st.lists(st.sampled_from("0123456789"), min_size=2, max_size=5).map(
    lambda ds: "^(".join(ds) + ")" * (len(ds) - 1))  # 2^(3^(4)) and so on
fragments = st.recursive(token_soup | towers, lambda inner: st.one_of(
    st.builds(lambda a, b: a + b, inner, inner),
    st.builds(lambda a, b: f"{a}^({b})", inner, inner),
    st.builds(lambda s, depth: "(" * depth + s + ")" * depth, inner, st.integers(1, 120)),
), max_leaves=4)
fuzz_inputs = st.one_of(fragments, st.builds(lambda a, b: f"{a}={b}", fragments, fragments),
                        st.builds(lambda b: f"y(t+1)-2y(t)={b}", fragments))


@seed(2024)
@settings(max_examples=30, deadline=None)
@given(st.lists(fuzz_inputs, min_size=1, max_size=6))
def test_fuzz_gate(cases):
    # one fresh interpreter per batch, bounded to 30 s and 1 GiB by run_bounded
    out = run_bounded(f"cases = {cases!r}\n" + textwrap.dedent("""
        import contextlib, io
        from fdsolve import cli
        codes = []
        for s in cases:
            for argv in (["solve", s, "--verify"], ["apply", "T - 2", s], ["apply", s, "t"],
                         ["verify", "y(t+1) - 2y(t) = 1", s], ["verify", s, "1"]):
                with contextlib.redirect_stdout(io.StringIO()), \\
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
        print(*codes)
        """))
    codes = [int(c) for c in out.split()]
    assert len(codes) == 5 * len(cases)
    assert set(codes) <= {0, 1, 2, 3}
