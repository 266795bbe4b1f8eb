import hashlib
import json
import sys
from fractions import Fraction as F

import pytest

from projrep.charident import predicted_adjoint_roots, weight_blocks
from projrep.cli import main
from projrep.errors import ConsistencyViolationError, MultiplicityAnomalyError
from projrep.glmodules import GlModule, cached_module
from projrep.linalg import DegenerateSpectrumError, Matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_trivial_reducible(capsys):
    code, out, _ = run(capsys, "analyze", "-n", "2", "-a", "0", "-b", "0")
    assert code == 0
    assert "verdict: reducible" in out
    assert "first failure degree 1" in out
    assert "composition series" in out
    assert "degree 1: 0 of 2" in out


def test_analyze_json_roundtrip(capsys):
    code, out, _ = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", "1/2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["highest_weight"] == ["3/4", "-1/4"]
    assert doc["criterion"]["verdict"] == "irreducible"
    assert doc["jordan_holder"] is None
    assert all(row["rank"] == row["full"] for row in doc["ranks_by_degree"])


def test_analyze_table_and_json_agree(capsys):
    code, out_json, _ = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", "1", "--json")
    doc = json.loads(out_json)
    code2, out_tab, _ = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", "1")
    assert code == code2 == 0
    assert doc["jordan_holder"]["residual_weight"] == ["1", "1"]
    assert "residual weight ('1', '1')" in out_tab
    for row in doc["q_table"]:
        assert f"q = {row['q']}" in out_tab


def test_analyze_decimal_scalar_is_exact(capsys):
    # -b is read by Fraction, so 0.5 is exactly 1/2
    code, decimal, _ = run(capsys, "analyze", "--json", "-n", "2", "-a", "1", "-b", "0.5")
    code2, fraction, _ = run(capsys, "analyze", "--json", "-n", "2", "-a", "1", "-b", "1/2")
    assert code == code2 == 0
    assert decimal == fraction


def test_analyze_smallest_case(capsys):
    code, out, _ = run(capsys, "analyze", "-n", "1", "-a", "", "-b", "0")
    assert code == 0
    assert "dim V = 1" in out and "verdict: reducible" in out


def test_analyze_rank3_rational_scalar(capsys):
    code, out, _ = run(capsys, "analyze", "-n", "3", "-a", "2,0", "-b", "1/2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["highest_weight"] == ["3/2", "-1/2", "-1/2"]
    assert doc["criterion"]["verdict"] == "reducible"
    assert doc["criterion"]["failing_pairs"] == [[2, 2]]
    assert doc["jordan_holder"]["k"] == 1
    assert doc["jordan_holder"]["residual_index"] == 2
    assert doc["jordan_holder"]["corollary_consistent"] is True


# sha256 of `analyze --json` on six modules, two of them reducible: the q
# table, the chain ranks through degree 4 and the composition series all
# feed the digest
ANALYZE_DIGESTS = {
    "-n 4 -a 1,1,1 -b 0": "de61d34c3fdfcc6b5075a230cd75e5bb1e37331a9e80e81b5dfa91ead600c437",
    "-n 3 -a 2,2 -b 1/2": "1929135691d6a536c59a9a92d97b436d5595fb283cd5557f3d881b2eff836e72",
    "-n 3 -a 1,0 -b -2": "c3058f62c2078c6301c532453df5f5ac938d51315b3c78e2291e7a4465f47323",
    "-n 2 -a 1 -b -1": "1a26cf6db062484511fb2096015d95399f796653d61df0b9bd3f83adf1b8a0ba",
    "-n 3 -a 2,1 -b -3": "54a88d9c71b8e204b448a108063e78f6426390c1aebbe0fea86601ad33f464c5",
    "-n 4 -a 1,0,1 -b 1/2": "7dd7a736c2b43d2c08d69209ad4d7ae4ed5b389e2358cb2ac7d745f2fb93852f",
}


@pytest.mark.parametrize("args", ANALYZE_DIGESTS)
def test_analyze_json_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "analyze", *args.split(), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_DIGESTS[args]


def test_decompose_table(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "2", "-a", "1", "-b", "1", "-k", "1")
    assert code == 0
    assert "dim 3  q = 2  projector rank 3" in out
    assert "dim 1  q = 0  projector rank 1" in out


def test_decompose_k0(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "2", "-a", "1", "-b", "1", "-k", "0", "--json")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["summands"]) == 1 and doc["summands"][0]["q"] == "1"


def test_decompose_equal_entries_single_row(capsys):
    code, out, _ = run(capsys, "decompose", "-n", "3", "-a", "0,0", "-b", "0", "-k", "2", "--json")
    doc = json.loads(out)
    assert code == 0
    assert [row["c"] for row in doc["summands"]] == [[2, 0, 0]]


def test_verify_identity(capsys):
    code, out, _ = run(capsys, "verify-identity", "-n", "2", "-a", "1", "-b", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma2"]["residual_zero"] is True
    assert doc["sigma2"]["roots"] == ["2", "0"]
    assert doc["sigma2"]["multiplicities"] == [3, 1]
    assert doc["adjoint"]["residual_zero"] and doc["adjoint_dual"]["residual_zero"]


def test_selfcheck_passes(capsys):
    code, out, _ = run(capsys, "selfcheck", "--n-max", "1")
    assert code == 0
    assert "checks passed" in out
    assert "action-oracle: 7/7" in out and "spectrum-oracle: 7/7" in out


@pytest.mark.parametrize("error", [
    MultiplicityAnomalyError("synthetic anomaly"), DegenerateSpectrumError(1, (0, 1)),
])
def test_selfcheck_records_an_internal_error_and_sweeps_on(capsys, monkeypatch, error):
    import projrep.irreducibility as irreducibility
    from projrep.glmodules import clear_caches
    from projrep.selfcheck import run_selfcheck

    def boom(*args, **kwargs):
        raise error

    clear_caches()  # no cached module may hold ratios computed before the patch
    sound = run_selfcheck(n_max=1)
    monkeypatch.setattr(irreducibility, "_maximal_coordinates", boom)
    records = run_selfcheck(n_max=1)
    assert [(r.point, r.check) for r in records] == [(r.point, r.check) for r in sound]
    failed = {r.check for r in records if not r.ok}
    assert {"q-closed-form-vs-oracle", "criterion-vs-bruteforce"} <= failed
    assert all(r.detail == f"consistency violation: {error}" for r in records if not r.ok)
    code, out, err = run(capsys, "selfcheck", "--n-max", "1")
    assert code == 2
    assert "checks passed" in out and "criterion-vs-bruteforce: 0/7" in out
    assert "FAIL q-closed-form-vs-oracle" in err


def test_selfcheck_seed_does_not_change_verdicts(capsys):
    _, out1, _ = run(capsys, "selfcheck", "--n-max", "1", "--seed", "1", "--json")
    _, out2, _ = run(capsys, "selfcheck", "--n-max", "1", "--seed", "99", "--json")
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["by_check"] == doc2["by_check"]
    assert doc1["failures"] == doc2["failures"] == []


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "-n", "2", "-b", "0", "--bogus"])
    assert exc.value.code == 1


def test_bad_labels_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "-n", "2", "-a", "zzz", "-b", "0")
    assert code == 1
    assert "error: -a expects comma-separated nonnegative integers, got 'zzz'" in err


def test_label_arity_checked(capsys):
    code, _, err = run(capsys, "analyze", "-n", "3", "-a", "1", "-b", "0")
    assert code == 1 and "expects 2" in err


def test_dim_cap_exit_code(capsys):
    code, _, err = run(capsys, "analyze", "-n", "3", "-a", "9,9", "-b", "0", "--dim-cap", "50")
    assert code == 1 and "cap" in err


def test_verify_identity_failure_exits_2(capsys, monkeypatch):
    import projrep.charident as charident

    real = charident.predicted_sigma2_roots

    def wrong_roots(mu):
        roots = real(mu)
        roots[0] += 1
        return roots

    monkeypatch.setattr(charident, "predicted_sigma2_roots", wrong_roots)
    code, out, err = run(capsys, "verify-identity", "-n", "2", "-a", "1", "-b", "1")
    assert code == 2
    assert "consistency violation" in err and "sigma2" in err


def test_failed_adjoint_identity_exits_2(capsys, monkeypatch):
    # with d~_1 shifted, the Lagrange projectors are no projectors; their
    # ranks (15, 21, 18 against Weyl dimensions 15, 6, 3) must not print
    import projrep.charident as charident

    real = charident.predicted_adjoint_roots

    def wrong_roots(mu):
        d, dt = real(mu)
        return d, [dt[0] + 1] + dt[1:]

    monkeypatch.setattr(charident, "predicted_adjoint_roots", wrong_roots)
    code, out, err = run(capsys, "decompose", "-n", "3", "-a", "1,1", "-b", "1/2", "-k", "1")
    assert code == 2 and out == ""
    assert "consistency violation" in err and "adjoint_dual" in err


def test_consistency_violation_exit_code(capsys, monkeypatch):
    import projrep.cli as cli

    def boom(V, degree_cap=None):
        raise ConsistencyViolationError("synthetic defect")

    monkeypatch.setattr(cli, "jordan_holder", boom)
    code, _, err = run(capsys, "analyze", "-n", "2", "-a", "0", "-b", "0")
    assert code == 2 and "consistency violation" in err


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator"),
    ("x/2", "expected an integer or num/den"),
])
def test_bad_scalar_exit_code(capsys, text, message):
    code, _, err = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", text)
    assert code == 1
    assert f"invalid rational {text!r}: {message}" in err


def test_scalar_beyond_the_int_str_limit_exit_code(capsys):
    # refused on input with the limit named, not by the output's int-to-str conversion
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", "1e5000")
    assert code == 1 and out == ""
    assert f"invalid rational: more than {limit} digits" in err


@pytest.mark.parametrize("command, b", [
    *(pytest.param(command, "-3/2", id=command) for command in ("analyze", "decompose", "verify-identity")),
    *(pytest.param("analyze", b, id=f"analyze{b}") for b in ("-1e5", "-2.5e-1", "-0.5E1")),
])
def test_negative_fraction_after_b(capsys, command, b):
    # argparse must not take -3/2, or a signed decimal with an exponent, for an option
    code, spaced, _ = run(capsys, command, "-n", "2", "-a", "1", "-b", b, "--json")
    assert code == 0
    _, joined, _ = run(capsys, command, "-n", "2", "-a", "1", f"-b={b}", "--json")
    assert spaced == joined


def test_negative_label_after_a(capsys):
    # -1,0 is a value of -a, refused by the label check rather than taken for an option
    code, out, err = run(capsys, "analyze", "-n", "3", "-a", "-1,0", "-b", "0")
    assert code == 1 and out == ""
    assert "Dynkin labels must be nonnegative" in err


@pytest.mark.parametrize("b", ["1e1400", "1e4000"])
def test_printed_value_beyond_the_int_str_limit_exit_code(capsys, b):
    # b itself passes the input limit, but a printed power of b does not
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", b)
    assert code == 1 and out == ""
    assert f"cannot print a rational of more than {limit} digits" in err


def test_scalar_whose_printed_values_fit_the_int_str_limit(capsys):
    code, out, err = run(capsys, "analyze", "-n", "2", "-a", "1", "-b", "1e1000")
    assert code == 0 and err == ""
    assert "1" + "0" * 1000 in out


@pytest.mark.parametrize("argv, message", [
    (["analyze", "-n", "0", "-a", "", "-b", "0"], "argument -n: must be at least 1, got 0"),
    (["decompose", "-n", "2", "-a", "1", "-b", "1", "-k", "-1"], "argument -k: must be at least 0, got -1"),
    (["selfcheck", "--n-max", "0"], "argument --n-max: must be at least 1, got 0"),
    (["selfcheck", "--degree-cap", "-1"], "argument --degree-cap: must be at least 0, got -1"),
    (["analyze", "-n", "2", "-a", "1", "-b", "0", "--dim-cap", "-1"],
     "argument --dim-cap: must be at least 1, got -1"),
    (["selfcheck", "--dim-cap", "0"], "argument --dim-cap: must be at least 1, got 0"),
])
def test_out_of_range_integer_argument_exit_code(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("target, argv, error", [
    ("projector_rank", ["decompose", "-n", "2", "-a", "1", "-b", "1", "-k", "1"],
     DegenerateSpectrumError(1, (0, 1))),
    ("jordan_holder", ["analyze", "-n", "2", "-a", "0", "-b", "0"],
     MultiplicityAnomalyError("synthetic anomaly")),
])
def test_internal_error_exit_code(capsys, monkeypatch, target, argv, error):
    import projrep.cli as cli

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, boom)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert f"consistency violation: {error}" in err


def _with_off_weight_entry(V):
    """A copy of V whose E_{1,2} also maps the highest vector to itself, an
    entry of the wrong weight: E_{1,2} raises the weight by e_1 - e_2."""
    hi = V.highest_index
    action = [list(row) for row in V.action]
    e12 = V.e(0, 1)
    action[0][1] = Matrix(V.dim, V.dim, {**e12.entries, (hi, hi): 1})
    return GlModule(V.labels, V.lattice_weights, action)


@pytest.mark.parametrize("command", ["verify-identity", "decompose"])
@pytest.mark.parametrize("n, labels", [(3, "1,1"), (4, "1,1,1")])
def test_off_weight_generator_exits_2(capsys, monkeypatch, command, n, labels):
    import projrep.cli as cli

    real_build = cli.build_irreducible
    monkeypatch.setattr(cli, "build_irreducible", lambda *a, **k: _with_off_weight_entry(real_build(*a, **k)))
    code, out, err = run(capsys, command, "-n", str(n), "-a", labels, "-b", "1/2")
    assert code == 2
    assert "consistency violation" in err and "another weight" in err
    assert out == ""


@pytest.mark.parametrize("argv", [["verify-identity"], ["decompose", "-k", "1"]])
def test_spectral_commands_take_no_rank_and_build_no_block_operator(capsys, monkeypatch, argv):
    """The command line reads multiplicities and projector ranks from traces
    on blocks cut from the generators: no rank, no elimination, no n*dim
    block operator."""
    import projrep.charident as charident
    import projrep.linalg as linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("called on the command-line path")

    for owner, name in ((linalg, "rank"), (charident, "rank"), (linalg.EchelonSpan, "insert"),
                        (linalg, "block"), (charident, "block"), (charident, "sigma2_tilde"),
                        (charident, "adjoint_matrices"), (charident, "full_operator"),
                        (charident, "_geometric_multiplicity"), (charident, "eval_operator_polynomial"),
                        (linalg.Matrix, "scale")):
        monkeypatch.setattr(owner, name, forbidden)
    code, out, err = run(capsys, *argv, "-n", "4", "-a", "1,1,1", "-b", "1/2", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)


def test_decompose_evaluates_one_operator_polynomial_per_block(capsys, monkeypatch):
    """decompose -k 1 reads every projector rank from one block report: the
    integer trace pass of the adjoint_dual operator's generator grid, with
    all n roots -d~, once per dominant weight block."""
    V = cached_module(4, (1, 1, 1), F(1, 2))
    dt = predicted_adjoint_roots(V.highest_weight)[1]
    expected = [(b.rows, [-x for x in dt]) for b, _ in weight_blocks(V, False)]
    calls = _count_polynomial_traces(monkeypatch)
    code, out, _ = run(capsys, "decompose", "-n", "4", "-a", "1,1,1", "-b", "1/2", "-k", "1")
    assert code == 0 and out.count("projector rank") == 4
    assert calls == expected


def test_verify_identity_evaluates_one_operator_polynomial_per_grid(capsys, monkeypatch):
    """verify-identity checks three operators on two generator grids: one
    integer trace pass per dominant weight block of each grid, with all n
    roots, since sigma2 and adjoint_dual share theirs."""
    V = cached_module(4, (1, 1, 1), F(1, 2))
    d, dt = predicted_adjoint_roots(V.highest_weight)
    expected = [(b.rows, [-x for x in dt]) for b, _ in weight_blocks(V, False)]
    expected += [(b.rows, d) for b, _ in weight_blocks(V, True)]
    calls = _count_polynomial_traces(monkeypatch)
    code, out, _ = run(capsys, "verify-identity", "-n", "4", "-a", "1,1,1", "-b", "1/2")
    assert code == 0 and out.count("residual zero: True") == 3
    assert sorted(calls) == sorted(expected)


def _count_polynomial_traces(monkeypatch):
    """The (block size, roots) of every polynomial_traces call from now on."""
    import projrep.charident as charident

    calls = []
    real = charident.polynomial_traces

    def counting(op, numerators, den):
        calls.append((op.rows, [F(p, den) for p in numerators]))
        return real(op, numerators, den)

    monkeypatch.setattr(charident, "polynomial_traces", counting)
    return calls


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error's exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_prints_what_a_fresh_parser_prints(capsys):
    # the parser is built once per process; no flag, default or subcommand
    # of one call may leak into the next
    import projrep.cli as cli

    sequence = [
        ["analyze", "--json", "-n", "2", "-a", "1", "-b", "1/2", "--degree-cap", "2"],
        ["decompose", "-n", "3", "-a", "1,0", "-b", "0"],
        ["analyze", "-n", "2", "-a", "1", "-b", "0", "--bogus"],
        ["decompose", "-n", "2", "-a", "1", "-b", "-3/2", "-k", "2"],
        ["verify-identity", "--json", "-n", "2", "-a", "1", "-b", "1"],
        ["analyze", "-n", "2", "-a", "0", "-b", "0"],
        ["selfcheck", "--n-max", "1", "--degree-cap", "1"],
        ["decompose", "--json", "-n", "2", "-a", "2", "-b", "1"],
    ]
    cli._parser.cache_clear()
    reused = [_outcome(capsys, argv) for argv in sequence]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert "unrecognized arguments: --bogus" in reused[2][2]
