import hashlib
import json
import sys
from fractions import Fraction as F

import pytest

from conftest import cached_module
from projrep.charident import predicted_adjoint_roots, weight_blocks
from projrep.cli import main
from projrep.errors import ConsistencyViolationError, MultiplicityAnomalyError
from projrep.glmodules import DominantLabels, GlModule, pieri_index_set
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


# sha256 of the plain-text `analyze` on the same six modules: the q table's
# lines are written apart from its JSON rows
ANALYZE_TABLE_DIGESTS = {
    "-n 4 -a 1,1,1 -b 0": "b62bae54481867302c0d6e589aee970743e3b985cc1cc0a7e144562690a356fe",
    "-n 3 -a 2,2 -b 1/2": "11692146c21784d13c4f969b403f2d471c4df775312af6b6e60a883bb8d6c0c8",
    "-n 3 -a 1,0 -b -2": "f479a6095be67f308ddc48749b2320e86d18ea7df922c03398cff88bf87bfa0c",
    "-n 2 -a 1 -b -1": "127d50a947d87122edbbc82746664340166783a63167b0ebb4027e14e90624bb",
    "-n 3 -a 2,1 -b -3": "b09623f6f78aa562175c3d6d3683a788aba79130d0b7e25f9892b0f74b8b4673",
    "-n 4 -a 1,0,1 -b 1/2": "1daf34cf88d13b7106108c039c239ffb6886543d9c251b231aa862c52cfaa3b8",
}


@pytest.mark.parametrize("args", ANALYZE_TABLE_DIGESTS)
def test_analyze_table_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "analyze", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_TABLE_DIGESTS[args]


# sha256 of the plain-text `decompose -k 1` and `-k 2` on a module with
# rational entries and on a reducible one with q = 0 rows
DECOMPOSE_TABLE_DIGESTS = {
    "-n 3 -a 2,2 -b 1/2 -k 1": "c23e843b7565e334195e91b51bc71c01e50f9c56e0c0cac9959da87faf23af29",
    "-n 3 -a 2,2 -b 1/2 -k 2": "8c1e3c290c755febea9d004b5d465081d670aa788ccc660d1b58da166b98c2b6",
    "-n 3 -a 1,0 -b -2 -k 1": "1b6ae213d7132adf7ba6c49f94b38cc97b490441d86e4fee97c8a470f06bf46f",
    "-n 3 -a 1,0 -b -2 -k 2": "0def7ab924473e06a36ea183742756fe075da8160457b94f578e891adec918ae",
}


@pytest.mark.parametrize("args", DECOMPOSE_TABLE_DIGESTS)
def test_decompose_table_output_is_pinned(capsys, args):
    code, out, _ = run(capsys, "decompose", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_TABLE_DIGESTS[args]


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
    from projrep.selfcheck import run_selfcheck

    def boom(*args, **kwargs):
        raise error

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


# sha256 of `selfcheck --n-max 2`, as JSON and as the table: every suite on
# the 28 sweep points feeds the digest
SELFCHECK_DIGESTS = {
    "--json": "274421b60165f7107773458ed5f1d9a74b15259806554644a78611a5ee64257e",
    "": "7c456a512c2ea6d542e720c2933e0f0e437dbb7440146e36ec0b310632fa8432",
}


@pytest.mark.parametrize("flags", SELFCHECK_DIGESTS)
def test_selfcheck_output_is_pinned(capsys, flags):
    code, out, _ = run(capsys, "selfcheck", "--n-max", "2", *flags.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SELFCHECK_DIGESTS[flags]


def test_selfcheck_builds_each_point_once(monkeypatch):
    # each sweep point builds its own module, so no point reads another's
    # memo tables, or a module its caller built
    import projrep.selfcheck as selfcheck

    built = []
    real = selfcheck.build_irreducible

    def counting(labels):
        built.append(tuple(labels))
        return real(labels)

    monkeypatch.setattr(selfcheck, "build_irreducible", counting)
    records = selfcheck.run_selfcheck(n_max=2)
    points = list(selfcheck.standard_sweep(2))
    assert built == points and len(built) == 28
    assert len(records) == 24 * len(points)


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


def test_unprintable_q_is_refused_before_it_is_formed(capsys, monkeypatch):
    # a product of 300,000 factors ran for half a minute before the refusal
    import projrep.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("q_c formed")

    monkeypatch.setattr(cli, "q_coefficient", forbidden)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "decompose", "-n", "2", "-a", "1", "-b", "0", "-k", "300000")
    assert code == 1 and out == ""
    assert f"cannot print a rational of more than {limit} digits" in err
    # 1/|q_c| past the limit refuses the denominator the same way
    with pytest.raises(ValueError, match=f"cannot print a rational of more than {limit} digits"):
        cli._summand((F(1, 10**5000),), (), (1,))


def test_q_with_a_zero_factor_prints_zero(capsys):
    # the factor 2b - 1 + i vanishes at i = 11, whatever the other 299,999 are
    code, out, _ = run(capsys, "decompose", "-n", "1", "-b", "-5", "-k", "300000")
    assert code == 0 and out.endswith("q = 0\n")


def test_q_refusal_is_a_bound_on_the_printed_value():
    """Every q_c refused unformed would be refused by format_rational too,
    and a limit of 0 refuses none."""
    from projrep.cli import _summand
    from projrep.glmodules import dominant_gaps, weight_from_labels
    from projrep.irreducibility import q_coefficient
    from projrep.linalg import format_rational

    mu = weight_from_labels(DominantLabels(2, (1,), F(1, 3)))
    gaps = dominant_gaps(mu)
    limit = sys.get_int_max_str_digits()
    refused = 0
    try:
        sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
        for k in range(0, 700, 7):
            for c in pieri_index_set(mu, k):
                try:
                    _summand(mu, gaps, c)
                except ValueError:
                    refused += 1
                    with pytest.raises(ValueError):
                        format_rational(q_coefficient(mu, c))
        sys.set_int_max_str_digits(0)
        assert _summand(mu, gaps, (700, 0))[0]["q"] == format_rational(q_coefficient(mu, (700, 0)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert refused > 0


def test_summand_rows_match_the_fraction_formulas(monkeypatch):
    """Each row reads q_c and the summand's entries off one q_factors call,
    on integers, and prints what the Fraction formulas print, q = 0 rows
    included."""
    import itertools

    import projrep.cli as cli
    import projrep.irreducibility as irreducibility
    from projrep.glmodules import dominant_gaps, weight_add, weight_from_labels, weyl_dimension
    from projrep.irreducibility import q_coefficient
    from projrep.linalg import format_rational

    cases = []
    for n in range(1, 4):
        for dynkin in itertools.product(range(3), repeat=n - 1):
            for b in (F(-2), F(-1), F(0), F(1, 3), F(-3, 2), F(7, 3)):
                mu = weight_from_labels(DominantLabels(n, dynkin, b))
                cases += [(mu, c) for k in range(5) for c in pieri_index_set(mu, k)]
    expected = []
    for mu, c in cases:
        summand = weight_add(mu, c)
        row = {
            "c": list(c),
            "summand": [format_rational(x) for x in summand],
            "weyl_dim": weyl_dimension(summand),
            "q": format_rational(q_coefficient(mu, c)),
        }
        line = f"  c={c}  summand {tuple(row['summand'])}  dim {row['weyl_dim']}  q = {row['q']}"
        expected.append((row, line))
    assert sum(row["q"] == "0" for row, _ in expected) > 0

    calls = []
    original = irreducibility.q_factors

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "q_factors", counting)
    monkeypatch.setattr(irreducibility, "q_factors", counting)
    for (mu, c), want in zip(cases, expected):
        calls.clear()
        assert cli._summand(mu, dominant_gaps(mu), c) == want, (mu, c)
        assert calls == [c], (mu, c)


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
    (["selfcheck", "--dim-cap", "5"], "unrecognized arguments: --dim-cap 5"),
    (["selfcheck", "--seed", "0"], "unrecognized arguments: --seed 0"),
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


@pytest.mark.parametrize("argv, calls", [(["verify-identity"], 2), (["decompose", "-k", "1"], 1)])
def test_spectral_commands_group_each_grids_weights_once(capsys, monkeypatch, argv, calls):
    """verify-identity reads the dominant weight spaces once per generator
    grid, as sigma2 and adjoint_dual share one; decompose -k 1 reads them
    once for all n projector ranks."""
    import projrep.charident as charident

    seen = []
    real = charident.dominant_weight_spaces

    def counting(V, shifts):
        seen.append(tuple(shifts))
        return real(V, shifts)

    monkeypatch.setattr(charident, "dominant_weight_spaces", counting)
    code, _, _ = run(capsys, *argv, "-n", "4", "-a", "1,1,1", "-b", "1/2")
    assert code == 0
    assert len(seen) == len(set(seen)) == calls


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
