"""Command-line driver: exit codes, output formats, and the sample corpus
(every accept/ file typechecks and runs clean; every reject/ file is refused
with the diagnostic named in its first-line `// expect-error:` comment)."""

import os
import re
import subprocess
import sys

import pytest

from capslang import cli
from capslang.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_TYPE,
    main,
)
from capslang.generator import GenConfig, gen_source
from capslang.metatheory import MetaViolation
from capslang.typecheck import TypeCheckError, typecheck_program

from conftest import CORPUS, ROOT, reduce_source

SRC = ROOT / "src"

ACCEPT = sorted((CORPUS / "accept").glob("*.caps"))
REJECT = sorted((CORPUS / "reject").glob("*.caps"))


def write(tmp_path, src):
    f = tmp_path / "prog.caps"
    f.write_text(src)
    return str(f)


GOOD = """
class D { int f; }
mut D y = new D(1 + 2);
y
"""


def plus_chain(n):
    return "class D { int f; }\nnew D(" + " + ".join(["1"] * n) + ")\n"


def nested_blocks(n):
    e = "new D(1)"
    for _ in range(n):
        e = "{ mut D y = " + e + "; y }"
    return "class D { int f; }\n" + e + "\n"


def assert_diagnostic(err, prefix):
    (line,) = err.splitlines()
    assert line.startswith(prefix)


class TestCheck:
    def test_ok_output(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, GOOD)]) == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"^main : mut D$", out, re.M)
        assert re.search(r"^rules: ", out, re.M)

    def test_type_error(self, tmp_path, capsys):
        src = "class D { int f; }\nimm D y = new D(0);\ny.f = 1"
        assert main(["check", write(tmp_path, src)]) == EXIT_TYPE
        assert "type error" in capsys.readouterr().err

    def test_type_error_location(self, tmp_path, capsys):
        src = "class K { int n; }\nmut K k = new K(w);\nk\n"
        assert main(["check", write(tmp_path, src)]) == EXIT_TYPE
        assert capsys.readouterr().err == "type error: unknown variable w at 2:17\n"

    @pytest.mark.parametrize(
        "name, where", [("capsule_reuse", "4:11"), ("forward_ref", "3:5")]
    )
    def test_wellformedness_location(self, capsys, name, where):
        # a well-formedness rejection is located at its declaration
        assert main(["check", str(CORPUS / "reject" / f"{name}.caps")]) == EXIT_PARSE
        kind = name.replace("_", "-")
        assert_diagnostic(capsys.readouterr().err, f"error: {where}: {kind}: ")

    def test_class_table_violation_has_no_location(self, tmp_path, capsys):
        path = write(tmp_path, "class D { int f; int f; }\nnew D(1, 2)\n")
        assert main(["check", path]) == EXIT_PARSE
        assert_diagnostic(capsys.readouterr().err, "error: dup-field: f: duplicate field")

    @pytest.mark.parametrize(
        "params, args", [("mut D a, int a", "d, 2"), ("int a, mut D a", "2, d")]
    )
    @pytest.mark.parametrize("cmd", ["check", "run"])
    def test_duplicate_parameter_is_refused(self, tmp_path, capsys, cmd, params, args):
        # a method that declares a parameter name twice is refused before
        # typing, in either order of the two parameters
        src = (
            f"class D {{ int f; int m(read, {params}) {{ return a; }} }}\n"
            f"{{mut D d = new D(1); d.m({args})}}\n"
        )
        assert main([cmd, write(tmp_path, src)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: dup-param: a: duplicate parameter in D.m\n"

    @pytest.mark.parametrize("q", ["capsule", "lent", "read"])
    def test_field_qualifier_is_validated(self, tmp_path, capsys, q):
        # a field of any type parses; validation refuses all but mut, imm
        # and int
        path = write(tmp_path, f"class D {{ int n; }}\nclass C {{ {q} D f; }}\nnew D(1)\n")
        assert main(["check", path]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            f"error: bad-field-qualifier: f: field C.f has qualifier {q}; "
            "only mut/imm/int fields are allowed\n"
        )

    @pytest.mark.parametrize("src, message", [
        ("class D { int f; int m(read, mut E e) { return 1; } }\nnew D(1)\n",
         "unknown-class: e: parameter type mut E in D.m"),
        ("class D { int f; mut E m(read) { return new D(1); } }\nnew D(1)\n",
         "unknown-class: m: return type mut E in D.m"),
        ("class D { int f; }\nmut E e = new D(1); 1\n",
         "2:7: unknown-class: e: local type mut E"),
        ("class D { int f; }\nmut E e = new D(1);\ne.f;\n1\n",
         "2:7: unknown-class: e: local type mut E"),
    ], ids=["parameter", "return", "local", "local-read-by-discard"])
    def test_unknown_class_is_validated(self, tmp_path, capsys, src, message):
        # every type a program declares names a class of the table, as a
        # field's type does; validation runs before a discard that reads
        # the local has its type inferred
        assert main(["check", write(tmp_path, src)]) == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_parse_error(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "class {")]) == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "digit", ["\u00b2", "\u0663"], ids=["superscript", "arabic-indic"]
    )
    def test_non_ascii_digit(self, tmp_path, capsys, digit):
        # once a ValueError traceback (exit 1), or silently the literal 3
        src = f"int x = {digit};\nx"
        assert main(["check", write(tmp_path, src)]) == EXIT_PARSE
        assert_diagnostic(
            capsys.readouterr().err, f"error: 1:9: unexpected character {digit!r}"
        )

    def test_budget_exhaustion(self, tmp_path, capsys):
        src = """
        class A { int v;
          mut A mix(mut, mut A a) { return {this.v = a.v; a}; }
          capsule A clone(read) { return new A(this.v); }
          mut A parse(static) { return new A(0); }
        }
        mut A a1 = A.parse();
        capsule A outerA = {
          mut A a2 = A.parse();
          capsule A nestedA = { mut A a3 = A.parse(); mut A res = a2.mix(a2).clone(); res.mix(a3) };
          nestedA.mix(a2)
        };
        outerA
        """
        assert main(["check", write(tmp_path, src), "--budget", "5"]) == EXIT_RESOURCE
        assert "search exhausted" in capsys.readouterr().err

    def test_too_deep(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, plus_chain(2000))]) == EXIT_RESOURCE
        assert_diagnostic(capsys.readouterr().err, "resource exhausted: ")

    def test_lent_locals_have_no_cap(self, tmp_path, capsys):
        # a capsule block of k lent locals, the last storing the first into
        # the outer x: every k gets a verdict, a leak of the first into the
        # capsule a type error at its location; a spent budget has none
        cases = ((7, False, EXIT_OK), (40, False, EXIT_OK), (40, True, EXIT_TYPE))
        for k, leak, code in cases:
            lent = " ".join(f"lent D z{i} = new D({i});" for i in range(1, k))
            body = "z1" if leak else "w"
            src = (
                "class D { int f; }\nclass C { mut D f1; mut D f2; }\n"
                "mut D z = new D(1);\nmut C x = new C(z, z);\n"
                f"capsule C y = {{ {lent} lent D u = (x.f1 = z1); "
                f"mut D w = new D(0); new C({body}, {body}) }};\ny\n"
            )
            path = write(tmp_path, src)
            assert main(["check", path]) == code
            err = capsys.readouterr().err
            if leak:
                assert re.fullmatch(r"type error: no derivation for goal mut C at 5:\d+\n",
                                    err)
            else:
                assert err == ""
            assert main(["check", path, "--budget", "0"]) == EXIT_RESOURCE
            assert capsys.readouterr().err == (
                "search exhausted: search budget of 0 nodes exhausted\n"
            )


class TestRun:
    def test_final_term(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, GOOD)]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.endswith("}") and "new D(3)" in out

    def test_trace_format(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, GOOD), "--trace"]) == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"^#1 \[[a-z-]+\] ", out, re.M)

    def test_verify_meta_clean(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, GOOD), "--verify-meta"]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "budget, code, found", [(20, EXIT_RESOURCE, 1), (200, EXIT_OK, 0)]
    )
    def test_verify_meta_inconclusive(self, capsys, budget, code, found):
        # the program typechecks in 18 ticks, and its simplified form, the
        # trace's first term, needs 21; at budget 20, subject reduction runs
        # out of budget at that one step and finds no violation: resource
        # exhaustion, not a counterexample
        path = str(CORPUS / "accept" / "typing_two.caps")
        args = ["run", path, "--verify-meta", "--budget", str(budget)]
        assert main(args) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == found
        assert all('"inconclusive: search budget of 20 ' in x for x in lines)

    def test_verify_meta_conclusive_wins(self, tmp_path, capsys, monkeypatch):
        # one conclusive violation among inconclusive ones is a violation
        found = [
            MetaViolation("subject-reduction", 1, None, "inconclusive: budget", "t"),
            MetaViolation("canonical-forms", 1, "y", "wrong class", "t"),
        ]
        monkeypatch.setattr(cli, "verify_trace", lambda *a, **k: found)
        assert main(["run", write(tmp_path, GOOD), "--verify-meta"]) == EXIT_TYPE
        assert len(capsys.readouterr().err.splitlines()) == 2

    def test_out_of_fuel(self, tmp_path, capsys):
        src = """
        class A { int v; mut A spin(mut) { return this.spin(); } }
        mut A a = new A(0);
        a.spin()
        """
        assert main(["run", write(tmp_path, src), "--fuel", "40"]) == EXIT_RESOURCE
        assert "fuel" in capsys.readouterr().err

    def test_too_deep(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, plus_chain(400))]) == EXIT_RESOURCE
        assert_diagnostic(capsys.readouterr().err, "resource exhausted: ")

    @pytest.mark.parametrize(
        "src", [nested_blocks(245), plus_chain(329)], ids=["blocks", "plus"]
    )
    def test_deep_program_no_traceback(self, tmp_path, src):
        # the nesting is near the recursion limit, so every recursive walk
        # (the node facts included) must end in a documented exit code
        r = run_fresh(tmp_path, src)
        assert r.returncode in (EXIT_OK, EXIT_TYPE, EXIT_PARSE, EXIT_RESOURCE)
        assert "Traceback" not in r.stderr

    def test_deep_chain_runs_as_deep_as_it_checks(self, tmp_path):
        # the ANF pass recurses no deeper than the checker: a chain that
        # `caps check` accepts also runs
        r = run_fresh(tmp_path, plus_chain(300))
        assert (r.returncode, r.stderr) == (EXIT_OK, "")


def run_fresh(tmp_path, src):
    """`caps run` on src in a fresh process, at its own stack depth."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "capslang.cli", "run", write(tmp_path, src)],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestDot:
    SRC = """
    class D { int f; }
    class C { mut D f1; mut D f2; }
    imm C z = new C(new D(0), new D(1));
    z
    """

    def test_shapes_and_entry(self, tmp_path, capsys):
        assert main(["dot", write(tmp_path, self.SRC)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("digraph store {")
        assert "shape=diamond" in out  # the imm reference
        assert "subgraph cluster_" in out  # its encapsulated local store
        assert "[style=bold]" in out  # the entry edge

    def test_at_step_zero(self, tmp_path, capsys):
        assert main(["dot", write(tmp_path, self.SRC), "--at-step", "0"]) == EXIT_OK
        assert "digraph store {" in capsys.readouterr().out

    def test_at_step_out_of_range(self, tmp_path, capsys):
        rc = main(["dot", write(tmp_path, self.SRC), "--at-step", "999"])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize(
        "name", [None, "cyclic_assign.caps"], ids=["no-steps", "steps"]
    )
    def test_at_step_every_step(self, tmp_path, capsys, name):
        # every k from 0 to the last step draws a store, the last one by
        # default; one past the last is refused
        path = str(CORPUS / "accept" / name) if name else write(tmp_path, self.SRC)
        with open(path) as f:
            n = len(reduce_source(f.read())[1].steps)
        for k in range(n + 1):
            assert main(["dot", path, "--at-step", str(k)]) == EXIT_OK
            last = capsys.readouterr().out
            assert last.startswith("digraph store {")
        assert main(["dot", path]) == EXIT_OK
        assert capsys.readouterr().out == last
        assert main(["dot", path, "--at-step", str(n + 1)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert_diagnostic(err, f"error: trace has only {n} steps")

    @pytest.mark.parametrize(
        "name", ["imm_store.caps", "cyclic_assign.caps"], ids=["no-steps", "steps"]
    )
    def test_at_step_negative(self, capsys, name):
        # rejected whether or not the trace has steps, never counted from
        # the end
        path = str(CORPUS / "accept" / name)
        assert main(["dot", path, "--at-step", "-1"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert_diagnostic(err, "error: --at-step -1 is negative")


class TestNegativeOptions:
    """A negative count, budget, fuel or step is refused before any work,
    with exit 2 and one line naming the option; zero keeps its meaning."""

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "{prog}", "--fuel", "-1"],
            ["run", "{prog}", "--budget", "-1"],
            ["check", "{prog}", "--budget", "-5"],
            ["dot", "{prog}", "--fuel", "-2"],
            ["fuzz", "--count", "-1"],
            ["fuzz", "--size", "-3"],
            ["fuzz", "--fuel", "-1"],
        ],
        ids=" ".join,
    )
    def test_refused(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        args = [a.format(prog=write(tmp_path, GOOD)) for a in args]
        assert main(args) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert_diagnostic(err, f"error: {args[-2]} {args[-1]} is negative")
        assert [f.name for f in tmp_path.iterdir()] == ["prog.caps"]

    def test_zero_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fuzz", "--count", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "0 programs, 0 accepted, 0 failures\n"

    def test_zero_budget(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, GOOD), "--budget", "0"]) == EXIT_RESOURCE
        assert_diagnostic(capsys.readouterr().err, "search exhausted: ")

    def test_zero_fuel(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, GOOD), "--fuel", "0"]) == EXIT_RESOURCE
        assert_diagnostic(capsys.readouterr().err, "out of fuel after 0 steps")


# A discarded statement reading a field the class lacks: the declared type of
# its discard variable cannot be inferred.
UNKNOWN_FIELD_STATEMENT = "class K { int n; } { mut K k = new K(0); k.g; k }\n"

COMMANDS = ["check", "run", "dot"]


class TestFailures:
    """Each failure ends in its documented exit code and a one-line
    diagnostic, whichever command meets it."""

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_missing_file(self, tmp_path, capsys, cmd):
        assert main([cmd, str(tmp_path / "missing.caps")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert_diagnostic(err, "error: ")
        assert "missing.caps" in err

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_not_utf8(self, tmp_path, capsys, cmd):
        f = tmp_path / "prog.caps"
        f.write_bytes(b"\xff\xfe class D { int f; }")
        assert main([cmd, str(f)]) == EXIT_PARSE
        assert_diagnostic(capsys.readouterr().err, "error: ")

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_untypable_statement(self, tmp_path, capsys, cmd):
        path = write(tmp_path, UNKNOWN_FIELD_STATEMENT)
        assert main([cmd, path]) == EXIT_TYPE
        assert_diagnostic(capsys.readouterr().err, "type error: no field g in class K")

    def test_dot_of_ill_typed_program(self, capsys):
        # dot typechecks before it reduces, as run does
        path = str(CORPUS / "reject" / "unknown_field.caps")
        assert main(["dot", path]) == EXIT_TYPE
        assert_diagnostic(capsys.readouterr().err, "type error: no field g in class K")

    @pytest.mark.parametrize("path", REJECT, ids=lambda p: p.name)
    def test_dot_exits_as_check_does(self, capsys, path):
        rc = main(["check", str(path)])
        check_err = capsys.readouterr().err
        assert rc in (EXIT_TYPE, EXIT_PARSE)
        assert main(["dot", str(path)]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == check_err

    def test_fuzz_counts_untypable_statement_as_rejection(self):
        assert cli._fuzz_failure(UNKNOWN_FIELD_STATEMENT, 2000) == ("", False)


class TestFuzzCommand:
    def test_small_clean_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["fuzz", "--seed", "0", "--count", "25", "--fuel", "2000"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK, out
        assert "25 programs" in out
        assert not list(tmp_path.glob("caps_repro_*.caps"))

    def test_typechecks_each_program_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(p, budget=None):
            calls.append(p)
            return typecheck_program(p, budget)

        monkeypatch.setattr(cli, "typecheck_program", counting)
        monkeypatch.chdir(tmp_path)
        rc = main(["fuzz", "--seed", "0", "--count", "12", "--fuel", "2000"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK, out
        assert len(calls) == 12
        # the summary counts what a separate load-and-typecheck accepts
        accepted = 0
        for seed in range(12):
            try:
                typecheck_program(cli._load(gen_source(GenConfig(seed=seed))))
                accepted += 1
            except TypeCheckError:
                pass
        assert 0 < accepted < 12
        assert out == f"12 programs, {accepted} accepted, 0 failures\n"


class TestCorpus:
    @pytest.mark.parametrize("path", ACCEPT, ids=lambda p: p.stem)
    def test_accept(self, path, capsys):
        assert main(["check", str(path)]) == EXIT_OK, capsys.readouterr().err
        assert main(["run", str(path), "--verify-meta"]) == EXIT_OK

    @pytest.mark.parametrize("path", REJECT, ids=lambda p: p.stem)
    def test_reject(self, path, capsys):
        first = path.read_text().splitlines()[0]
        m = re.match(r"//\s*expect-error:\s*(.+)", first)
        assert m, f"{path} lacks an expect-error header"
        expected = m.group(1).strip()
        rc = main(["check", str(path)])
        err = capsys.readouterr().err
        assert rc in (EXIT_TYPE, EXIT_PARSE), f"{path} was accepted"
        assert expected in err, f"{path}: {expected!r} not in {err!r}"
