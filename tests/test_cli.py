import json

import pytest

from qhenum import backend
from qhenum.cli import (
    EXIT_BY_VERDICT,
    ProjectError,
    load_instance,
    load_project,
    main,
    parse_domain,
    verify,
)
from qhenum.enumeration import gen_injective_vcs
from qhenum.sexpr import SexprError
from qhenum.terms import term_to_text

SYSTEM = """
(system chooser
  (vars (c Int) (o Int))
  (init (and (<= 0 c) (< c 2) (= o c)))
  (tx (and (= c! c) (= o! o))))
"""

PROPERTY = """
(qhp (forall t0)
     (count t1
       :diff (finally (not (= o$1 o$2)))
       :body (globally (= c$2 c$2))
       :cmp eq
       :bound 2))
"""

ENUMERATION = """
(enumeration
  (enum-vars (Y Int))
  (valid (and (<= 0 Y) (< Y 2)))
  (trel (and (= c$2 Y) (= o$2 Y)))
  (skolem-init (c Y) (o Y))
  (skolem-step (c Y) (o Y))
  (cover (Y o$2)))
"""

PROOF = """
(proof
  (declare-pred V ((Y Int)) (counted Y) (and (<= 0 Y) (< Y 2)))
  (step 1 (range V))
  (goal (= cnt.V 2)))
"""

PROJECT = """
(project
  (system "system.sexp")
  (property "property.sexp")
  (enumeration "enumeration.sexp")
  (proof "proof.sexp")
  (valid-pred V)
  (options (timeout-ms 20000)))
"""

INSTANCE = """
(instance
  (project ".")
  (domains (c (range 0 1)) (o (range 0 1)))
  (count-vars (Y (range 0 1)))
  (depth 3)
  (deterministic true))
"""


def write_project(directory, **overrides):
    files = {
        "system.sexp": SYSTEM,
        "property.sexp": PROPERTY,
        "enumeration.sexp": ENUMERATION,
        "proof.sexp": PROOF,
        "project.sexp": PROJECT,
        "instance.sexp": INSTANCE,
    }
    files.update(overrides)
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
    return directory


@pytest.fixture(scope="module")
def project_dir(tmp_path_factory):
    return write_project(tmp_path_factory.mktemp("suite") / "chooser")


def test_load_project(project_dir):
    project = load_project(project_dir)
    assert project.valid_pred == "V"
    assert project.timeout_ms == 20000
    assert project.prop.cmp == "eq"


def test_load_project_missing_manifest(tmp_path):
    with pytest.raises(ProjectError):
        load_project(tmp_path)


def test_load_project_valid_pred_mismatch(tmp_path):
    d = write_project(
        tmp_path / "broken",
        **{"proof.sexp": PROOF.replace("(< Y 2)", "(< Y 3)")},
    )
    with pytest.raises(ProjectError):
        from qhenum.cli import _link_formula

        _link_formula(load_project(d))


def test_verify_end_to_end(project_dir):
    report = verify(load_project(project_dir))
    assert report["verdict"] == "QHP-verified"
    assert report["failed_stage"] is None
    stages = report["stages"]
    assert stages["well-definedness"]["verdict"] == "passed"
    assert stages["enumeration"]["verdict"] == "passed"
    assert {b["kind"] for b in stages["enumeration"]["bundles"]} == {
        "injective",
        "surjective",
    }
    assert stages["counting"]["verdict"] == "passed"
    assert stages["link"]["verdict"] == "passed"


def test_verify_cli_exit_and_json(project_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", str(project_dir), "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "QHP-verified"
    assert report["schema"] == "report/v1"
    assert json.loads(capsys.readouterr().out)["verdict"] == "QHP-verified"


def test_verify_wrong_bound_is_not_verified(tmp_path):
    # the admitted facts pin cnt.V to 2, so the claim "= 3" cannot be linked;
    # the refutation search cannot terminate either (the recursive count
    # axioms have no finite model), so the honest verdict is unknown
    d = write_project(
        tmp_path / "refuted",
        **{
            "property.sexp": PROPERTY.replace(":bound 2", ":bound 3"),
            "project.sexp": PROJECT.replace("20000", "8000"),
        },
    )
    report = verify(load_project(d))
    assert report["verdict"] in ("stage-failed", "unknown")
    assert report["failed_stage"] == "link"
    assert EXIT_BY_VERDICT[report["verdict"]] in (1, 2)


def test_verify_rejected_proof_exits_1(tmp_path):
    d = write_project(
        tmp_path / "badproof",
        **{"proof.sexp": PROOF.replace("(range V)", "(const-ub V 2)")},
    )
    report = verify(load_project(d))
    assert report["verdict"] == "stage-failed"
    assert report["failed_stage"] == "counting"


def test_manifest_options_give_solver_and_timeout(tmp_path):
    options = '(options (solver "my-z3") (timeout-ms 7000))'
    d = write_project(
        tmp_path / "options",
        **{"project.sexp": PROJECT.replace("(options (timeout-ms 20000))", options)},
    )
    project = load_project(d)
    assert (project.solver, project.timeout_ms) == (["my-z3"], 7000)
    # explicit arguments win over the manifest
    project = load_project(d, solver=["other-z3", "-in"], timeout_ms=5)
    assert (project.solver, project.timeout_ms) == (["other-z3", "-in"], 5)


def test_verify_usage_error_exits_3(tmp_path):
    assert main(["verify", str(tmp_path / "absent")]) == 3


def test_verify_missing_solver_exits_3(project_dir, tmp_path, capsys):
    solver = str(tmp_path / "nonexistent" / "z3")
    assert main(["verify", str(project_dir), "--solver", solver]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_exit_code_table():
    assert EXIT_BY_VERDICT == {"QHP-verified": 0, "stage-failed": 1, "unknown": 2}


def test_oracle_brute_count(project_dir, capsys):
    code = main(["oracle", "--instance", str(project_dir / "instance.sexp"),
                 "--brute-count", "valid"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_oracle_count_classes(project_dir, capsys):
    code = main(["oracle", "--instance", str(project_dir / "instance.sexp"),
                 "--count-classes"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_oracle_bad_pivot(project_dir, capsys):
    code = main(["oracle", "--instance", str(project_dir / "instance.sexp"),
                 "--count-classes", "--pivot", "9"])
    assert code == 3


def test_load_instance_depth_override(project_dir):
    setup = load_instance(project_dir / "instance.sexp", depth=5)
    assert setup.instance.depth == 5
    assert setup.instance.deterministic is True


def test_bench_suite(project_dir, tmp_path, capsys):
    code = main(["bench", str(project_dir.parent), "--json", str(tmp_path / "suite.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "chooser" in out and "QHP-verified" in out
    data = json.loads((tmp_path / "suite.json").read_text())
    assert data["suite"][0]["project"] == "chooser"


def test_bench_empty_suite_warns(tmp_path, capsys):
    code = main(["bench", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "(empty suite)" in captured.out


def test_verify_debug_dir_one_numbering(benchmarks, stub_solver, tmp_path, capsys):
    # the stub answers unsat to everything: this checks the plumbing only
    debug = tmp_path / "debug"
    cmd = stub_solver("unsat")
    code = main(["verify", str(benchmarks / "path-oram"), "--solver", cmd[0],
                 "--debug-dir", str(debug)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert not [p for p in debug.iterdir() if p.is_dir()]
    names = sorted(p.name for p in debug.glob("*.smt2"))
    assert [int(n[:3]) for n in names] == list(range(1, len(names) + 1))
    labels = [n[4:-len(".smt2")] for n in names]
    enumeration = {
        ob["label"].replace("/", "_")
        for bundle in report["stages"]["enumeration"]["bundles"]
        for ob in bundle["obligations"]
    }
    sent_first = [label in enumeration for label in labels].index(False)
    assert sent_first > 0 and not set(labels[sent_first:]) & enumeration
    assert any(label.startswith("close(") for label in labels[sent_first:-1])
    assert labels[-1] == "link"


def copy_benchmark(benchmarks, name, directory):
    directory.mkdir()
    for path in (benchmarks / name).iterdir():
        (directory / path.name).write_text(path.read_text())
    return directory


def test_verify_malformed_proof_exits_3(benchmarks, stub_solver, tmp_path, capsys):
    purse = copy_benchmark(benchmarks, "electronic-purse", tmp_path / "purse")
    proof = purse / "proof.sexp"
    proof.write_text(proof.read_text().replace("(range V)", "(range)"))
    code = main(["verify", str(purse), "--solver", stub_solver("unsat")[0]])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "step, message",
    [
        ("(const-lb V 0)", "constant bound needs c >= 1"),
        ("(close V dc 1 1 1 dc >)", "close_recurrence relation must be =, <=, or >="),
        ("(ind-geq V V dc (witness (y y)))",
         "ind rule: counted variables of f and g must not share names"),
    ],
)
def test_verify_bad_step_starts_no_solver(benchmarks, tmp_path, capsys, step, message):
    # a rule's side conditions are checked at load: the solver never runs
    purse = copy_benchmark(benchmarks, "electronic-purse", tmp_path / "purse")
    proof = purse / "proof.sexp"
    proof.write_text(proof.read_text().replace("(range V)", step))
    log = tmp_path / "solver.log"
    stub = tmp_path / "logging-solver.sh"
    stub.write_text(f"#!/bin/sh\necho run >> '{log}'\ncat > /dev/null\necho unsat\n")
    stub.chmod(0o755)
    assert main(["verify", str(purse), "--solver", str(stub)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not log.exists()


def test_trace_names_are_labels_only(benchmarks, tmp_path, capsys):
    # copies 1 and 2 of each predicate carry the roles: naming the pivot
    # like the counted trace must change neither a query nor a count
    purse = copy_benchmark(benchmarks, "electronic-purse", tmp_path / "purse")
    prop = purse / "property.sexp"
    assert "(forall t0)" in prop.read_text()
    prop.write_text(prop.read_text().replace("(forall t0)", "(forall t1)"))

    def psi(directory):
        project = load_project(directory)
        bundle = gen_injective_vcs(project.system, project.prop, project.witness)
        (ob,) = [ob for ob in bundle.obligations if ob.label == "existence-step/psi"]
        return [term_to_text(a) for a in ob.assertions]

    assert psi(purse) == psi(benchmarks / "electronic-purse")
    assert main(["oracle", "--instance", str(purse / "instance.sexp"), "--count-classes"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_verify_unknown_counting_premise_exits_2(benchmarks, case_solver, capsys):
    # counting queries mention a count symbol, enumeration queries do not
    cmd = case_solver("cnt.", "unknown", "unsat")
    code = main(["verify", str(benchmarks / "electronic-purse"), "--solver", cmd[0]])
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["failed_stage"], code) == ("unknown", "counting", 2)
    assert report["stages"]["enumeration"]["verdict"] == "passed"
    assert report["stages"]["counting"]["reason"] == "goal: solver returned unknown"
    assert report["stages"]["counting"]["verdict"] == "unknown"


# Text that one query alone sends, under the answers of the split stub:
# the purse's distinctness obligation, the goal its link query asserts, and
# the password checker's bound check.
PURSE_DISTINCTNESS = "(not (not (= bal$2 bal$3)))"
PURSE_LINK = "(assert (forall ((dc Int)) (=> (>= dc 1) (>= (cnt.V dc) dc))))"
PASSWORD_BOUND_NONNEG = "(<= 0 (- (pow2 n) 1))"
# unsat to validity queries, sat to model searches: verifies every project
SPLIT_STUB = ("smt.mbqi", "unsat", "sat\n(model)")


@pytest.mark.parametrize(
    "name, target, reply, verdict, stage, code",
    [
        ("electronic-purse", PURSE_DISTINCTNESS, "sat", "stage-failed", "enumeration", 1),
        ("electronic-purse", PURSE_DISTINCTNESS, "unknown", "unknown", "enumeration", 2),
        ("electronic-purse", PURSE_LINK, "sat", "stage-failed", "link", 1),
        ("electronic-purse", PURSE_LINK, "unknown", "unknown", "link", 2),
        ("password-checker", PASSWORD_BOUND_NONNEG, "sat", "stage-failed", "link", 1),
    ],
    ids=["enumeration-sat", "enumeration-unknown", "link-sat", "link-unknown",
         "bound-nonneg-sat"],
)
def test_verify_stage_outcome(
    benchmarks, case_solver, capsys, name, target, reply, verdict, stage, code
):
    cmd = case_solver(*SPLIT_STUB, before=[(target, reply)])
    exit_code = main(["verify", str(benchmarks / name), "--solver", cmd[0]])
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["failed_stage"], exit_code) == (verdict, stage, code)
    stage_verdict = "failed" if reply == "sat" else "unknown"
    assert report["stages"][stage]["verdict"] == stage_verdict


def test_verify_link_is_retried_like_the_goal(benchmarks, case_solver, tmp_path, capsys):
    # E-matching leaves the link unknown, model-based instantiation proves it
    cmd = case_solver(*SPLIT_STUB, before=[("smt.mbqi true", "unsat"), (PURSE_LINK, "unknown")])
    debug = tmp_path / "debug"
    code = main(["verify", str(benchmarks / "electronic-purse"), "--solver", cmd[0],
                 "--debug-dir", str(debug)])
    assert (json.loads(capsys.readouterr().out)["verdict"], code) == ("QHP-verified", 0)
    first, retry = sorted(debug.glob("*-link.smt2"))
    assert "(set-option :smt.mbqi false)" in first.read_text()
    assert "(set-option :smt.mbqi true)" in retry.read_text()


def test_bench_table_counts_model_and_proof_lines(benchmarks, case_solver, capsys):
    assert main(["bench", str(benchmarks), "--solver", case_solver(*SPLIT_STUB)[0]]) == 0
    _, *rows = capsys.readouterr().out.splitlines()
    assert {row.split()[0]: row.split()[1:3] for row in rows} == {
        d.name: [str(len((d / f).read_text().splitlines())) for f in ("system.sexp", "proof.sexp")]
        for d in benchmarks.iterdir()
    }


def test_verify_bad_valid_pred_sends_no_query(benchmarks, stub_solver, tmp_path, capsys):
    purse = copy_benchmark(benchmarks, "electronic-purse", tmp_path / "purse")
    manifest = purse / "project.sexp"
    manifest.write_text(manifest.read_text().replace("(valid-pred V)", "(valid-pred Nope)"))
    debug = tmp_path / "debug"
    code = main(["verify", str(purse), "--solver", stub_solver("unsat")[0],
                 "--debug-dir", str(debug)])
    assert code == 3
    assert capsys.readouterr().err == "error: proof script declares no predicate Nope\n"
    assert not list(debug.glob("*.smt2"))


@pytest.mark.parametrize(
    "name",
    ["electronic-purse", "f-y-array-shuffle", "password-checker", "path-oram", "zk-hats"],
)
def test_every_query_is_asked(benchmarks, case_solver, monkeypatch, tmp_path, capsys, name):
    # each query the solver sees was put to it by Session.ask
    asked = []
    ask = backend.Session.ask

    def recording_ask(self, obligation, *args, **kwargs):
        if not obligation.syntactic:
            asked.append(obligation.label.replace("/", "_"))
        return ask(self, obligation, *args, **kwargs)

    monkeypatch.setattr(backend.Session, "ask", recording_ask)
    debug = tmp_path / "debug"
    cmd = case_solver(*SPLIT_STUB)
    code = main(["verify", str(benchmarks / name), "--solver", cmd[0], "--debug-dir", str(debug)])
    assert (json.loads(capsys.readouterr().out)["verdict"], code) == ("QHP-verified", 0)
    sent = [p.name[4:-len(".smt2")] for p in debug.glob("*.smt2")]
    assert sent and sorted(asked) == sorted(sent)


def test_builtin_symbol_in_system_reaches_the_solver(benchmarks, case_solver, tmp_path, capsys):
    # every loader reads pow2 and fact, and every query declares what it applies
    purse = copy_benchmark(benchmarks, "electronic-purse", tmp_path / "purse")
    system = purse / "system.sexp"
    system.write_text(system.read_text().replace("(>= dc 1)", "(>= (pow2 dc) 1)"))
    debug = tmp_path / "debug"
    stub = case_solver("smt.mbqi", "unsat", "sat\n(model)")
    code = main(["verify", str(purse), "--solver", stub[0], "--debug-dir", str(debug)])
    assert (json.loads(capsys.readouterr().out)["verdict"], code) == ("QHP-verified", 0)
    (init,) = debug.glob("*-existence-base_init.smt2")
    assert "(declare-fun pow2 (Int) Int)\n" in init.read_text()
    assert main(["oracle", "--instance", str(purse / "instance.sexp"), "--count-classes"]) == 0
    assert capsys.readouterr().out == "2\n"


BOTH = ("verify", "oracle")

# (file, old text, new text, error message, commands that reach the fault:
# "valid" and "V" are oracle --brute-count of that formula);
# every case is a malformed input that must exit 3 with one error line
MALFORMED_TERMS = [
    pytest.param("system.sexp", "(= st 0)", "(= st zzz)", "unknown atom 'zzz'", BOTH,
                 id="system.sexp"),
    pytest.param("property.sexp", ":bound dc", ":bound zzz", "unknown atom 'zzz'", BOTH,
                 id="property.sexp"),
    pytest.param("enumeration.sexp", "(< y dc$1)", "(< y zzz)", "unknown atom 'zzz'", BOTH,
                 id="enumeration.sexp"),
    pytest.param("property.sexp", ":cmp geq", ":cmp gt",
                 "strict comparators require a literal bound", BOTH, id="strict-cmp"),
    pytest.param("instance.sexp", "(depth 4)", "(depth x)",
                 "(depth ...) takes an integer, got (depth x)", ("oracle",), id="depth-x"),
    pytest.param("project.sexp", "(valid-pred V)", "(valid-pred V) (options (timeout-ms))",
                 "(timeout-ms ...) takes an integer, got (timeout-ms)", BOTH,
                 id="timeout-arity"),
    pytest.param("enumeration.sexp", "(q q$1) (rs y))", "(q q$1))",
                 "skolem-init lacks terms for rs", ("verify",), id="skolem-lacks-rs"),
    pytest.param("enumeration.sexp", "(strengthen", "(strenghten",
                 "enumeration: unexpected (strenghten ...)", BOTH, id="misspelled-section"),
    pytest.param("system.sexp", "(vars (bal Int)", "(vars (bal Int) (bal Int)",
                 "vars: bal given twice", BOTH, id="duplicate-var"),
    pytest.param("instance.sexp", "(depth 4)", "depth", "instance: unexpected depth",
                 ("oracle",), id="instance-atom"),
    pytest.param("system.sexp", "(- bal dc) bal)", "(- bal dc))",
                 "ite takes 3 arguments, got 2", BOTH, id="term-arity"),
    pytest.param("proof.sexp", "(forall ((dc Int))", "(forall dc",
                 "expected a binder list, got dc", BOTH, id="binder-atom"),
    pytest.param("instance.sexp", "(rs (range 0 1)))", "(rs (range 0 1)) (zz (range 0 1)))",
                 "domains: zz is not a state variable", ("oracle",), id="domain-not-a-var"),
    pytest.param("instance.sexp", "(depth 4)", "(depth 4) (init-fix (zz 0))",
                 "init-fix: zz is not a state variable", ("oracle",), id="init-fix-not-a-var"),
    pytest.param("instance.sexp", "(params (dc 2))", "(params (dc 2) (bal 1))",
                 "params: bal is not a system parameter", ("oracle",), id="param-not-a-param"),
    pytest.param("property.sexp", ":diff (finally", ":diff (globally",
                 "diff is not of the form F(predicate)", BOTH, id="diff-not-finally"),
    pytest.param("property.sexp", ":body (globally", ":body (finally",
                 "body is not of the form G(predicate)", BOTH, id="body-not-globally"),
    pytest.param("instance.sexp", "(count-vars (y (range 0 6)))", "",
                 "count-vars: no domain for y", ("valid", "V"), id="count-var-no-domain"),
    pytest.param("enumeration.sexp", "(skolem-init", "(skolem",
                 "enumeration: unexpected (skolem ...)", BOTH, id="skolem-alias"),
    pytest.param("instance.sexp", "(depth 4)", "(depth 4) (stable-from 1)",
                 "instance: unexpected (stable-from ...)", ("oracle",), id="stable-from"),
    pytest.param("system.sexp", "(rs Int)", "(rs Itn)", "bad sort Itn", BOTH, id="sort-typo"),
    pytest.param("proof.sexp", "(forall ((dc Int))", "(forall ((dc Itn))", "bad sort Itn", BOTH,
                 id="binder-sort-typo"),
    pytest.param("system.sexp", "(>= dc 1)", "(>= (fooo dc) 1)",
                 "unknown function symbol 'fooo'", BOTH, id="unknown-function"),
    pytest.param("system.sexp", "(>= dc 1)", "(>= (pow2 dc dc) 1)",
                 "pow2 takes 1 arguments, got 2", BOTH, id="function-arity"),
    pytest.param("instance.sexp", "(y (range 0 6))", "(y (values 0 0 1 2 3 4 5 6))",
                 "domain (values 0 0 1 2 3 4 5 6) repeats 0", ("valid",),
                 id="count-domain-repeats"),
    pytest.param("instance.sexp", "(rs (range 0 1))", "(rs (values 0 1 1))",
                 "domain (values 0 1 1) repeats 1", ("oracle",), id="state-domain-repeats"),
    pytest.param("proof.sexp", "(range V)", "(range (at V 1 2))",
                 "instantiation arity mismatch for V", BOTH, id="at-arity"),
    # every loaded term, and every instance value, is of its position's sort
    pytest.param("system.sexp", "(= st 0)", "(= st true)", "comparison of Int with Bool", BOTH,
                 id="init-sort"),
    pytest.param("property.sexp", ":bound dc", ":bound (>= dc 1)",
                 "bound has sort Bool, not Int", BOTH, id="bound-sort"),
    pytest.param("enumeration.sexp", "(st 0) (dc dc$1)", "(st true) (dc dc$1)",
                 "skolem-init st has sort Bool, not Int", BOTH, id="skolem-sort"),
    pytest.param("instance.sexp", "(rs (range 0 1))", "(rs (bool))",
                 "domains rs has sort Bool, not Int", ("oracle",), id="domain-sort"),
    pytest.param("instance.sexp", "(params (dc 2))", "(params (dc true))",
                 "params dc has sort Bool, not Int", ("oracle",), id="param-sort"),
    pytest.param("instance.sexp", "(y (range 0 6))", "(y (bool))",
                 "count-vars y has sort Bool, not Int", ("valid",), id="count-var-sort"),
]


def test_array_domain_names_each_element_value_once():
    with pytest.raises(SexprError) as err:
        parse_domain(["array", 1, 3, [1, 2, 2]])
    assert str(err.value) == "domain (array 1 3 (1 2 2)) repeats 2"


@pytest.mark.parametrize("filename, old, new, message, commands", MALFORMED_TERMS)
def test_malformed_term_exits_3(
    benchmarks, stub_solver, tmp_path, capsys, filename, old, new, message, commands
):
    purse = copy_benchmark(benchmarks, "electronic-purse", tmp_path / "purse")
    path = purse / filename
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    debug = tmp_path / "debug"
    argv = {
        "verify": ["verify", str(purse), "--solver", stub_solver("unsat")[0],
                   "--debug-dir", str(debug)],
        "oracle": ["oracle", "--instance", str(purse / "instance.sexp"), "--count-classes"],
        "valid": ["oracle", "--instance", str(purse / "instance.sexp"), "--brute-count", "valid"],
        "V": ["oracle", "--instance", str(purse / "instance.sexp"), "--brute-count", "V"],
    }
    for command in commands:
        assert main(argv[command]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not debug.exists()  # no query was sent


@pytest.mark.parametrize(
    "args, message",
    [
        (["--count-classes", "--pivot", "99"], "pivot index out of range (have 13 traces)"),
        (["--brute-count", "Nope"], "no such formula 'Nope'"),
    ],
    ids=["pivot", "formula"],
)
def test_oracle_usage_error_exits_3(benchmarks, capsys, args, message):
    instance = benchmarks / "electronic-purse" / "instance.sexp"
    assert main(["oracle", "--instance", str(instance), *args]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
