"""Command-line front end.

Subcommands: analyze (full pipeline for one module), decompose (tensor
summand table), verify-identity (characteristic identities), selfcheck
(invariant sweep).  Exit codes: 0 success, 1 usage error, 2 internal
consistency violation.  All rationals in JSON output are rendered as exact
strings, never floats.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from .charident import OPERATORS, block_report, projector_rank
from .errors import ConsistencyViolationError, DimensionCapError, MultiplicityAnomalyError
from .glmodules import (
    DEFAULT_DIM_CAP,
    DominantLabels,
    build_irreducible,
    dominant_gaps,
    pieri_index_set,
    weyl_dimension,
)
from .irreducibility import (
    criterion,
    criterion_equivalence_check,
    jordan_holder,
    q_coefficient,
    q_factors,
    up_submodule_rank,
)
from .linalg import DegenerateSpectrumError, format_ratio, format_rational, parse_rational, unprintable_error
from .action import graded_dimension

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSISTENCY = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -3/2 and -1e5 are values of -b, and -1,0 of -a, not options
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$|^-\d+/\d+$|^-\d+(,-?\d+)+$")

    # argparse exits 2 on usage errors; our exit-code contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(lo):
    """argparse type: an integer no smaller than `lo`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def _parse_labels(text, n):
    text = (text or "").strip()
    try:
        parts = tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        raise ValueError(f"-a expects comma-separated nonnegative integers, got {text!r}") from None
    if len(parts) != n - 1:
        raise ValueError(f"-a expects {n - 1} comma-separated labels for n={n}")
    return parts


def _fmt_weight(w):
    return "(" + ", ".join(format_rational(x) for x in w) + ")"


def _build(args):
    labels = DominantLabels(args.n, _parse_labels(args.a, args.n), parse_rational(args.b))
    return build_irreducible(labels, dim_cap=args.dim_cap)


def _emit(doc, as_json, table_lines):
    if as_json:
        import json  # only a --json run loads it
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


def _summand(mu, gaps, c, projector_rank=None):
    """JSON row and table line of the summand mu + c of a tensor decomposition.

    `gaps` are mu's dominant gaps, computed once per command; q_c and the
    entries come from one `q_factors` call, and a q_c whose numerator or
    denominator provably passes sys.get_int_max_str_digits() is refused unformed.
    """
    parts = den, nums, factors = q_factors(mu, c, gaps)
    limit = sys.get_int_max_str_digits()
    if limit and 0 not in factors:
        # 2^(b-1) <= |x| < 2^b for x of bit length b, so lo < log2|q_c| < hi;
        # past limit * log2(10) < 3.322 * limit bits, |q_c| or 1/|q_c| is at
        # least 10^limit, and so is q_c's numerator or denominator
        bits, d = sum(f.bit_length() for f in factors), den.bit_length()
        lo, hi = bits - len(factors) * (d + 1), bits - len(factors) * (d - 1)
        if 1000 * max(lo, -hi) >= 3322 * limit:
            raise unprintable_error()
    row = {
        "c": list(c),
        "summand": [format_ratio(x + y * den, den) for x, y in zip(nums, c)],
        "weyl_dim": weyl_dimension(gaps=[g + x - y for g, x, y in zip(gaps, c, c[1:])]),
        "q": format_rational(q_coefficient(mu, c, factors=parts)),
    }
    line = f"  c={c}  summand {tuple(row['summand'])}  dim {row['weyl_dim']}  q = {row['q']}"
    if projector_rank is not None:
        row["projector_rank"] = projector_rank
        line += f"  projector rank {projector_rank}"
    return row, line


def cmd_analyze(args):
    V = _build(args)
    mu = V.highest_weight
    wit = criterion(mu)
    equivalent = criterion_equivalence_check(mu)
    cap = args.degree_cap

    gaps = dominant_gaps(mu)
    summands = [_summand(mu, gaps, c) for j in range(cap + 1) for c in pieri_index_set(mu, j)]
    ranks = [{"degree": j, "rank": up_submodule_rank(V, j), "full": graded_dimension(V, j)}
             for j in range(cap + 1)]
    jh_doc = None
    if wit.reducible:
        jh_doc = jordan_holder(V, degree_cap=max(cap, wit.first_failure_degree + 1)).to_json()

    doc = {
        "n": V.n,
        "dynkin": list(V.labels.dynkin),
        "b": format_rational(V.b),
        "highest_weight": [format_rational(x) for x in mu],
        "dim": V.dim,
        "criterion": wit.to_json(),
        "criterion_forms_agree": equivalent,
        "q_table": [row for row, _ in summands],
        "ranks_by_degree": ranks,
        "jordan_holder": jh_doc,
    }

    lines = [
        f"module: n={V.n} dynkin={V.labels.dynkin} b={format_rational(V.b)}",
        f"highest weight mu = {_fmt_weight(mu)}   dim V = {V.dim}",
        f"verdict: {wit.verdict}"
        + (f"   failing pairs {list(wit.failing_pairs)} first failure degree {wit.first_failure_degree}"
           if wit.reducible else ""),
        f"both criterion forms agree: {equivalent}",
        "q coefficients (|c| <= {}):".format(cap),
    ]
    lines += [line for _, line in summands]
    lines.append("graded ranks:")
    for row in ranks:
        lines.append(f"  degree {row['degree']}: {row['rank']} of {row['full']}")
    if jh_doc is not None:
        lines.append(
            "composition series: 0 < chain span < whole module; "
            f"k = {jh_doc['k']}, i0 = {jh_doc['i0']}, residual index r = {jh_doc['residual_index']}"
        )
        lines.append(
            f"  residual weight {tuple(jh_doc['residual_weight'])}, "
            f"quotient character chi_{tuple(jh_doc['quotient_character'])}"
        )
        if jh_doc["finite_dim_flag"]:
            lines.append(
                f"  chain span is finite dimensional: labels {tuple(jh_doc['finite_dim_highest_labels'])}, "
                f"total dim {jh_doc['finite_dim_total']}"
            )
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_decompose(args):
    V = _build(args)
    mu = V.highest_weight
    k = args.k
    gaps = dominant_gaps(mu)
    summands = []
    for c in pieri_index_set(mu, k):
        rank_r = None
        if k == 1:
            r = next(t + 1 for t, x in enumerate(c) if x)
            rank_r = projector_rank(V, r, dual=False)
        summands.append(_summand(mu, gaps, c, rank_r))
    doc = {
        "n": V.n,
        "dynkin": list(V.labels.dynkin),
        "b": format_rational(V.b),
        "k": k,
        "summands": [row for row, _ in summands],
    }
    lines = [f"decomposition of degree-{k} piece for mu = {_fmt_weight(mu)}:"]
    lines += [line for _, line in summands]
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_verify_identity(args):
    V = _build(args)
    # every operator commutes with gl(n): its dominant weight blocks decide
    reports = {name: block_report(V, name) for name in OPERATORS}
    doc = {name: rep.to_json() for name, rep in reports.items()}
    lines = []
    for name, rep in reports.items():
        lines.append(
            f"{name}: roots {[format_rational(r) for r in rep.roots]} "
            f"residual zero: {rep.residual_is_zero} multiplicities {list(rep.multiplicities)}"
        )
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_selfcheck(args):
    from .selfcheck import run_selfcheck  # only this command loads the suites

    records = run_selfcheck(n_max=args.n_max, degree_cap=args.degree_cap)
    fails = [r for r in records if not r.ok]
    by_check = {}
    for r in records:
        by_check.setdefault(r.check, [0, 0])
        by_check[r.check][0] += r.ok
        by_check[r.check][1] += 1
    doc = {
        "total": len(records),
        "failures": [
            {"point": [r.point[0], list(r.point[1]), format_rational(r.point[2])],
             "check": r.check, "detail": r.detail}
            for r in fails
        ],
        "by_check": {k: {"pass": v[0], "total": v[1]} for k, v in by_check.items()},
    }
    lines = [f"{name}: {passed}/{total}" for name, (passed, total) in sorted(by_check.items())]
    lines.append(f"total: {len(records) - len(fails)}/{len(records)} checks passed")
    _emit(doc, args.json, lines)
    if not args.json:
        for r in fails:
            n, dyn, b = r.point
            print(
                f"FAIL {r.check} at n={n} -a {','.join(map(str, dyn))} -b {format_rational(b)}: {r.detail}",
                file=sys.stderr,
            )
    return EXIT_OK if not fails else EXIT_CONSISTENCY


def _add_module_args(p):
    p.add_argument("-n", type=_at_least(1), required=True, help="rank of the acting matrices")
    p.add_argument("-a", type=str, default="", help="comma-separated Dynkin labels (n-1 of them)")
    p.add_argument(
        "-b", type=str, required=True,
        help="central scalar: an integer, num/den, or an exact decimal such as 0.5",
    )
    p.add_argument("--dim-cap", type=_at_least(1), default=DEFAULT_DIM_CAP, help="refuse larger modules")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")


@functools.cache
def _parser():
    """The argument parser, built once per process and shared by every call of
    `main`; parsing leaves it as it was."""
    parser = _Parser(prog="projrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full irreducibility report for one module")
    _add_module_args(p_an)
    p_an.add_argument("--degree-cap", type=_at_least(1), default=4)
    p_an.set_defaults(fn=cmd_analyze)

    p_de = sub.add_parser("decompose", help="tensor summand table at one degree")
    _add_module_args(p_de)
    p_de.add_argument("-k", type=_at_least(0), default=1, help="degree of the symmetric factor")
    p_de.set_defaults(fn=cmd_decompose)

    p_vi = sub.add_parser("verify-identity", help="characteristic identity checks")
    _add_module_args(p_vi)
    p_vi.set_defaults(fn=cmd_verify_identity)

    p_sc = sub.add_parser("selfcheck", help="run the invariant sweep")
    p_sc.add_argument("--n-max", type=_at_least(1), default=2)
    p_sc.add_argument("--degree-cap", type=_at_least(0), default=4)
    p_sc.add_argument("--json", action="store_true")
    p_sc.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    # internal inconsistencies first: DegenerateSpectrumError is a ValueError
    except (ConsistencyViolationError, DegenerateSpectrumError, MultiplicityAnomalyError) as exc:
        print(f"projrep: consistency violation: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (DimensionCapError, ValueError) as exc:
        print(f"projrep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
