import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rigidlin.cli
import rigidlin.normal_forms
import rigidlin.suites
import rigidlin.witnesses
from rigidlin import Integers, ParseError, parse_matrix, in_row_span
from rigidlin.cli import _COMMANDS, build_parser, main

Z = Integers()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "ring-axioms", "--ring", "Z/6",
                           "--seed", "1", "--param", "samples=100")
    assert code == 0
    assert "pass" in out


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma-ke", "--n", "3",
                           "--trials", "2", "--count", "5", "--seed", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["suite"] == "lemma-ke"
    assert payload["params"]["need"] == 5


def test_verify_unknown_suite_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "bogus")
    assert code == 2


def test_verify_unsupported_ring_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "snf-oracle", "--ring", "Z/6")
    assert code == 2
    assert "error" in err


def _refuse_trials(monkeypatch):
    """Make any trial fail the test: a refusal must come before the first."""
    def no_trial(*args):
        raise AssertionError("a trial started")

    monkeypatch.setattr(rigidlin.suites, "_rng", no_trial)


def _assert_refused(code, out, err, message):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ("lemma-ke", "--trials", "-3"),
    ("lemma-new", "--trials", "-2"),
    ("lemma-new", "--param", "conjugators=-1"),
    ("lemma-ke", "--count", "0"),
    ("lemma-ke", "--param", "param_bound=0"),
    ("lemma-new", "--param", "word_length=0"),
    ("snf-oracle", "--trials", "0"),
    ("ring-axioms", "--param", "samples=0"),
    ("t-a-witnesses", "--trials", "0"),
    ("t-a-witnesses", "--count", "0"),
    ("rigidity-empirical", "--count", "0"),
    ("rigidity-empirical", "--ring", "Z/5", "--param", "finite_trials=-2"),
    ("kernel-oracle", "--param", "box=0"),
    ("transvections", "--trials", "0"),
    ("forms-generators", "--param", "words=-1"),
], ids=["ke-trials", "new-trials", "new-conjugators", "ke-count", "ke-param-bound",
        "new-word-length", "snf-trials", "axioms-samples", "t-a-trials", "t-a-count",
        "rigidity-count", "rigidity-finite-trials", "kernel-box", "transvections-trials",
        "forms-words"])
def test_verify_rejects_non_positive_parameters(capsys, monkeypatch, argv):
    _refuse_trials(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    _assert_refused(code, out, err, "must be at least 1")


# the three half-rank-1 cases never ended before they were refused
@pytest.mark.parametrize("argv, message", [
    (("forms-generators", "--param", "ns=[1]"), "must be an int >= 2, got 1"),
    (("transvections", "--param", "ns=[1]"), "must be an int >= 2, got 1"),
    (("t-a-witnesses", "--param", 'configs=[["symplectic", 1]]'), "got ['symplectic', 1]"),
    (("t-a-witnesses", "--param", 'configs=[["unitary", 2]]'), "got ['unitary', 2]"),
    (("t-a-witnesses", "--param", 'configs=[[["symplectic"], 2]]'),
     "got [['symplectic'], 2]"),
    (("t-a-witnesses", "--param", 'configs=[[{"kind": "symplectic"}, 2]]'),
     "got [{'kind': 'symplectic'}, 2]"),
    (("abelian-s", "--param", "ns=[1]"), "must be an int >= 2, got 1"),
    (("abelian-s", "--param", "ns=[true]"), "must be an int >= 2, got True"),
    (("abelian-s", "--param", 'ns=["a"]'), "must be an int >= 2, got 'a'"),
    (("abelian-s", "--param", "ns=[]"), "ns must not be empty"),
    (("transvections", "--param", "ns=[]"), "ns must not be empty"),
    (("t-a-witnesses", "--param", "configs=[]"), "configs must not be empty"),
    (("transvections", "--param", "ns=[2,2]"), "ns repeats the entry 2"),
    (("abelian-s", "--param", "ns=[2,3,2]"), "ns repeats the entry 2"),
    (("t-a-witnesses", "--param", 'configs=[["symplectic", 2], ["symplectic", 2]]'),
     "configs repeats the entry ['symplectic', 2]"),
    (("t-a-witnesses", "--param", 'configs=[["orthogonal", 2]]'),
     "orthogonal configs need half-rank >= 3"),
], ids=["forms-half-rank-1", "transvections-half-rank-1", "t-a-half-rank-1", "t-a-kind",
        "t-a-kind-list", "t-a-kind-dict",
        "abelian-n1", "abelian-bool", "abelian-str", "abelian-empty", "transvections-empty",
        "t-a-empty", "transvections-repeat", "abelian-repeat", "t-a-repeat",
        "t-a-orthogonal-half-rank-2"])
def test_verify_refuses_bad_list_entries(capsys, monkeypatch, argv, message):
    _refuse_trials(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    _assert_refused(code, out, err, message)


@pytest.mark.parametrize("argv, message", [
    (("lemma-new", "--param", "nedd=3"), "takes no parameter nedd"),
    (("lemma-ke", "--param", "nedd=5"), "takes no parameter nedd"),
    (("ring-axioms", "--n", "7"), "takes no parameter n;"),
    (("abelian-s", "--trials", "3"), "takes no parameter trials"),
    (("lemma-new", "--n", "2"), "need n >= 3"),
    (("lemma-new", "--n", "1"), "need n >= 3"),
    (("rigidity-empirical", "--ring", "Z/400", "--param", "finite_trials=1"), "the cap is"),
    # each branch reads its own trial counts: a count for the other one used
    # to be ignored, with exit 0
    (("rigidity-empirical", "--ring", "Z/5", "--trials", "3"), "over Z/5 ignores trials"),
    (("rigidity-empirical", "--ring", "Z/5", "--count", "3"), "over Z/5 ignores need"),
    (("rigidity-empirical", "--param", "finite_trials=1"), "over Z ignores finite_trials"),
    (("abelian-s", "--param", "ns=2"), "ns must be list, got 2"),
    (("lemma-ke", "--param", "n=true"), "n must be int, got True"),
    (("lemma-ke", "--param", "trials=2.5"), "trials must be int, got 2.5"),
    (("lemma-ke", "--param", "trials=two"), "not a JSON literal"),
], ids=["new-unknown", "ke-unknown", "axioms-n", "abelian-trials", "new-n2", "new-n1",
        "rigidity-cap", "rigidity-finite-trials-given", "rigidity-finite-need-given",
        "rigidity-infinite-finite-trials-given", "int-for-list", "bool-for-int", "float-for-int",
        "not-json"])
def test_verify_refuses_inapplicable_or_intractable_parameters(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert message in err and "pass" not in out


def test_kernel_oracle_box_above_the_enumeration_cap_is_refused(capsys, monkeypatch):
    # box=1000 used to enumerate up to 8e9 points per trial, with no end in sight
    def no_trial(a):
        raise AssertionError("a trial started")

    monkeypatch.setattr(rigidlin.suites, "kernel_basis", no_trial)
    code, out, err = run_cli(capsys, "verify", "kernel-oracle", "--param", "box=1000")
    _assert_refused(code, out, err, "the cap is 8000")


@pytest.mark.parametrize("argv", [
    ("eval-word", "--group", "en", "--n", "65", "--word", "e(1,2,3)"),
    ("eval-word", "--group", "en", "--n", "100000", "--word", "e(1,2,3)"),
    ("eval-word", "--group", "esp", "--n", "33", "--word", "rl(1,2)"),
    ("witness", "--group", "en", "--n", "65"),
    ("witness", "--group", "eo", "--n", "33"),
], ids=["eval-en", "eval-en-huge", "eval-esp", "witness-en", "witness-eo"])
def test_matrix_size_above_the_cap_is_refused(capsys, monkeypatch, argv):
    # refused before the word is parsed, so at once whatever the size
    def no_word(*args):
        raise AssertionError("a word was parsed")

    monkeypatch.setattr(rigidlin.cli, "parse_word", no_word)
    code, out, err = run_cli(capsys, *argv)
    _assert_refused(code, out, err, f"the cap is {rigidlin.suites.MATRIX_SIZE_CAP}")


@pytest.mark.parametrize("group, n, word", [("en", "64", "e(1,2,3)"), ("esp", "32", "rl(1,2)")])
def test_matrix_size_at_the_cap_runs(capsys, group, n, word):
    code, out, _ = run_cli(capsys, "eval-word", "--group", group, "--n", n, "--word", word, "--json")
    assert code == 0 and json.loads(out)["det"] == "1"


def test_witness_refuses_linear_size_one(capsys):
    # it used to fail on the identity of size 0 with "size must be positive"
    code, out, err = run_cli(capsys, "witness", "--group", "en", "--n", "1")
    _assert_refused(code, out, err, "shears need size at least 2")


@pytest.mark.parametrize("suite", ["transvections", "t-a-witnesses"])
@pytest.mark.parametrize("seed", ["2", "6"])
def test_verify_kernel_suites_over_integer_polynomials(capsys, suite, seed):
    code, out, _ = run_cli(capsys, "verify", suite, "--ring", "Z[x]", "--trials", "1",
                           "--seed", seed)
    assert code == 0 and ": pass (" in out


@pytest.mark.parametrize("argv, fragment", [
    pytest.param(("verify", "abelian-s", "--param", "ns"), "expected KEY=VALUE", id="param-no-equals"),
    pytest.param(("verify", "abelian-s", "--param", "=[2]"), "expected KEY=VALUE", id="param-no-key"),
    pytest.param(("witness", "--group", "esp", "--n", "2", "--conjugators", "rs(3,2,1)|rs(1,2,1)"),
                 "at most one conjugator word", id="esp-two-words"),
    pytest.param(("witness", "--group", "eo", "--n", "3", "--conjugators", "rs(1,2,1)",
                  "--conjugators", "rs(2,1,1)"),
                 "at most one conjugator word", id="eo-two-words"),
])
def test_bad_command_lines_raise_parse_errors(capsys, argv, fragment):
    args = build_parser().parse_args(list(argv))
    with pytest.raises(ParseError, match=re.escape(fragment)):
        _COMMANDS[args.command](args)
    code, out, err = run_cli(capsys, *argv)
    _assert_refused(code, out, err, fragment)


@pytest.mark.parametrize("argv, key, value", [
    (("abelian-s", "--param", "ns=[2]"), "ns", [2]),
    (("transvections", "--trials", "2", "--param", "ns=[2, 4]"), "ns", [2, 4]),
    (("t-a-witnesses", "--trials", "1", "--count", "3",
      "--param", 'configs=[["symplectic", 2]]'), "configs", [["symplectic", 2]]),
    (("lemma-ke", "--trials", "2", "--count", "3", "--param", "word_length=4"),
     "word_length", 4),
], ids=["abelian-ns", "transvections-ns", "t-a-configs", "integer"])
def test_verify_takes_json_parameter_values(capsys, argv, key, value):
    code, out, _ = run_cli(capsys, "verify", *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["params"][key] == value


def _run_python_m(*argv, timeout=60):
    env = dict(os.environ)
    src = str(Path(rigidlin.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "rigidlin", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_python_dash_m_runs_the_cli():
    run = _run_python_m("verify", "abelian-s", "--param", "ns=[2]")
    assert run.returncode == 0, run.stderr
    assert "suite abelian-s over Z: pass" in run.stdout


def _functionals_not_annihilating(kernel, count):
    """Annihilating functionals with one added to each coordinate: their
    shears no longer fix the conjugated images."""
    ring = kernel.ring
    for f in rigidlin.normal_forms.combination_stream(kernel, count):
        yield tuple(ring.add(c, ring.one) for c in f)


def test_identity_violation_in_suite_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(rigidlin.witnesses, "combination_stream",
                        _functionals_not_annihilating)
    code, out, _ = run_cli(capsys, "verify", "lemma-ke", "--trials", "2", "--count", "3")
    assert code == 1
    assert "fail" in out


def test_identity_violation_escaping_a_command_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(rigidlin.witnesses, "combination_stream",
                        _functionals_not_annihilating)
    code, out, err = run_cli(capsys, "witness", "--group", "en", "--n", "3",
                             "--conjugators", "e(2,1,1)", "--count", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_kernel_emits_json(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--matrix", "2,3", "--count", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "ring": "Z",
        "matrix": "2,3",
        "basis": ["3,-2"],
        "stream_sample": ["3,-2", "-3,2", "6,-4"],
    }


def test_kernel_over_modular(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--ring", "Z/4", "--matrix", "2", "--count", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["2"] and payload["stream_sample"] == ["2"]


def test_kernel_over_integer_polynomials(capsys):
    # the signed 2x2 minors of the rows on the columns other than each
    # entry's; each row times the generator is zero, term by term
    code, out, _ = run_cli(capsys, "kernel", "--ring", "Z[x]",
                           "--matrix", "x+1,2*x,3;x^2,1,x", "--count", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == ["2*x^2-3,2*x^2-x,-2*x^3+x+1"]
    assert payload["stream_sample"] == ["2*x^2-3,2*x^2-x,-2*x^3+x+1",
                                        "-2*x^2+3,-2*x^2+x,2*x^3-x-1"]


def test_snf_unsupported_ring(capsys):
    code, out, err = run_cli(capsys, "snf", "--ring", "Z[x]", "--matrix", "x,1")
    _assert_refused(code, out, err, "no Smith form over Z[x]")


def test_snf_command_reverifies(capsys):
    code, out, _ = run_cli(capsys, "snf", "--matrix", "2,4;6,8")
    assert code == 0
    payload = json.loads(out)
    a = parse_matrix(Z, payload["matrix"])
    d = parse_matrix(Z, payload["d"])
    u = parse_matrix(Z, payload["u"])
    v = parse_matrix(Z, payload["v"])
    assert u @ a @ v == d
    assert payload["d"] == "2,0;0,4"


def test_witness_linear_group(capsys):
    code, out, _ = run_cli(capsys, "witness", "--group", "en", "--n", "3",
                           "--conjugators", "e(2,1,1)", "--count", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["u_vectors"] == ["1,0"]
    assert payload["witnesses"][0] == "1,0,1;0,1,0;0,0,1"
    basis = [tuple(int(t) for t in u.split(",")) for u in payload["u_vectors"]]
    assert in_row_span(Z, [(1, 0)], basis[0])


def test_witness_over_integer_polynomials(capsys):
    # g e1 = (1, x, 1): the functional (1, -x) annihilates its tail (x, 1)
    code, out, _ = run_cli(capsys, "witness", "--group", "en", "--n", "3", "--ring", "Z[x]",
                           "--conjugators", "e(2,1,x);e(3,1,1)", "--count", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["u_vectors"] == ["x,1"]
    assert payload["witnesses"] == ["1,1,-x;0,1,0;0,0,1", "1,-1,x;0,1,0;0,0,1",
                                    "1,x,-x^2;0,1,0;0,0,1"]


@pytest.mark.parametrize("argv", [
    ("--group", "esp", "--n", "2", "--conjugators", "rs(3,2,x)"),
    ("--group", "eo", "--n", "3", "--conjugators", "rs(1,5,x);rs(2,1,1)"),
], ids=["esp", "eo"])
def test_block_witnesses_over_integer_polynomials(capsys, argv):
    code, out, _ = run_cli(capsys, "witness", *argv, "--ring", "Z[x]", "--count", "3")
    assert code == 0
    assert len(json.loads(out)["witnesses"]) == 3


def test_witness_symplectic_block_family(capsys):
    code, out, _ = run_cli(capsys, "witness", "--group", "esp", "--n", "2",
                           "--conjugators", "rl(3,1)", "--count", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["witnesses"]) == 3


def test_witness_word_split_on_pipe(capsys):
    code, out, _ = run_cli(capsys, "witness", "--group", "en", "--n", "4",
                           "--conjugators", "e(2,1,1)|e(3,1,2)", "--count", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["conjugators"]) == 2


def test_eval_word(capsys):
    code, out, _ = run_cli(capsys, "eval-word", "--group", "en", "--n", "2",
                           "--word", "e(1,2,1);e(2,1,-1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == "0,1;-1,1"
    assert payload["det"] == "1"


def test_eval_word_form_flag(capsys):
    code, out, _ = run_cli(capsys, "eval-word", "--group", "esp", "--n", "2",
                           "--word", "rl(1,2);rs(1,2,1)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["preserves_form"] is True


def test_eval_word_bad_token(capsys):
    code, _, err = run_cli(capsys, "eval-word", "--group", "en", "--n", "2",
                           "--word", "e(1,1,1)")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv, key", [
    (("lemma-ke", "--n", "4", "--param", "n=3"), "n"),
    (("lemma-ke", "--seed", "5", "--param", "seed=7"), "seed"),
    (("lemma-ke", "--param", "trials=1", "--param", "trials=2"), "trials"),
    (("lemma-ke", "--count", "3", "--param", "need=4"), "need"),
], ids=["n", "seed", "param-twice", "count-and-need"])
def test_verify_refuses_a_parameter_given_twice(capsys, monkeypatch, argv, key):
    _refuse_trials(monkeypatch)
    code, out, err = run_cli(capsys, "verify", *argv)
    _assert_refused(code, out, err, f"parameter {key} is given twice")


@pytest.mark.parametrize("argv", [
    ("snf", "--matrix", "2,4;6,8"),
    ("kernel", "--matrix", "2,3"),
    ("verify", "ring-axioms", "--param", "samples=5"),
    ("verify", "rigidity-empirical", "--ring", "Z/19"),
], ids=["snf", "kernel", "verify", "verify-finite"])
@pytest.mark.parametrize("where, reason", [
    pytest.param("missing-dir", "No such file or directory", id="missing-dir"),
    pytest.param("directory", "Is a directory", id="directory")])
def test_out_to_an_unwritable_path_exits_two(tmp_path, capsys, monkeypatch, argv, where, reason):
    """Refused before the command's work: no trial, no Smith form, no kernel."""
    def no_work(*args):
        raise AssertionError("the command's work started")

    _refuse_trials(monkeypatch)
    for name in ("smith_normal_form", "kernel_basis"):
        monkeypatch.setattr(rigidlin.cli, name, no_work)
    target = str(tmp_path / "missing" / "x.json") if where == "missing-dir" else str(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--out", target)
    _assert_refused(code, out, err, f"cannot write --out {target}: {reason}")


def test_out_refused_only_at_write_time_exits_two(tmp_path, capsys):
    parent = tmp_path / "file"
    parent.write_text("")
    target = str(parent / "x.json")
    code, out, err = run_cli(capsys, "snf", "--matrix", "2,4;6,8", "--out", target)
    _assert_refused(code, out, err, f"cannot write --out {target}: Not a directory")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "verify", "ring-axioms", "--ring", "Z",
                         "--param", "samples=50", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["verdict"] == "pass"


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    ("kernel", "--matrix", "1,2", "--count", "3"),
    ("snf", "--matrix", "2,4;6,8"),
    ("witness", "--group", "en", "--n", "3", "--count", "2"),
    ("eval-word", "--group", "en", "--n", "2", "--word", "e(1,2,1)"),
], ids=["kernel", "snf", "witness", "eval-word"])
def test_seed_is_refused_outside_verify(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 0
    code, out, err = run_cli(capsys, *argv, "--seed", "7")
    assert code == 2 and out == ""
    assert "--seed" in err


@pytest.mark.parametrize("argv", [
    ("kernel", "--matrix", "1,2", "--count", "0"),
    ("kernel", "--matrix", "1,2", "--count", "-3"),
    ("witness", "--n", "3", "--count", "0"),
    ("witness", "--n", "3", "--count", "-1"),
], ids=["kernel-zero", "kernel-negative", "witness-zero", "witness-negative"])
def test_count_below_one_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    _assert_refused(code, out, err, "error: --count must be at least 1")


def test_prime_too_large_to_test_exits_two():
    # 2**127 - 1, above the bound below which primality is decided; the
    # timeout catches a primality test that does not end
    run = _run_python_m("snf", "--matrix", "1", "--ring", f"Fp[x]/{2**127 - 1}", timeout=10)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: ") and "too large" in run.stderr
