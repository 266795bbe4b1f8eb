"""Invariant suites over the standard module sweep.

Each check_* function returns (ok, detail); run_selfcheck drives them over
the sweep of small modules and collects one record per (module, check).
The random spot checks (derivative/chain identity, intertwiner on random
vectors) draw from a seeded generator; everything else is exhaustive, so the
verdict cannot depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from fractions import Fraction

from .action import (
    GradedElement,
    act,
    chevalley_generators,
    commutator_equals,
    derivative_op,
    graded_basis,
    graded_dimension,
    operator_matrix,
    pseudo_translation_op,
    scaling_op,
    spanning_operators,
    triangle_delta,
    verify_bracket_consistency,
)
from .charident import (
    OPERATORS,
    ORACLE_MAX_DIM,
    block_report,
    brute_force_spectrum,
    full_operator,
    full_report,
    projector_rank,
    sigma2_tilde,
    tensor_projector,
)
from .errors import ConsistencyViolationError, MultiplicityAnomalyError
from .glmodules import (
    cached_module,
    clear_caches,
    dominant_gaps,
    pieri_index_set,
    validate_module,
    weight_add,
    weight_from_labels,
    weyl_dimension,
)
from .irreducibility import (
    _all_dominant_rank,
    _central_character,
    _chain_vector,
    criterion,
    criterion_equivalence_check,
    first_rank_deficiency,
    jordan_holder,
    q_coefficient,
    q_coefficient_bruteforce,
    up_submodule_matrix,
    up_submodule_rank,
)
from .linalg import DegenerateSpectrumError, Matrix, add_into, block, kernel_basis, kron, rank

__all__ = [
    "CheckRecord",
    "run_selfcheck",
    "standard_sweep",
    "eligible_indices",
]

MAX_LABEL = 2
B_VALUES = (
    Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2),
    Fraction(1, 2), Fraction(-3, 2),
)


def standard_sweep(n_max=2):
    """All (n, dynkin, b) with n <= n_max, labels up to MAX_LABEL, b in B_VALUES."""
    for n in range(1, n_max + 1):
        for dynkin in itertools.product(range(MAX_LABEL + 1), repeat=n - 1):
            for b in B_VALUES:
                yield n, dynkin, b


def eligible_indices(mu, s):
    """{1} plus every later coordinate whose preceding gap is at least s."""
    gaps = dominant_gaps(mu)
    return {1} | {i for i in range(2, len(mu) + 1) if gaps[i - 2] >= s}


# -- individual checks -----------------------------------------------------------


def check_module_invariants(V):
    validate_module(V)
    return True, "all generator invariants hold"


def check_labels_roundtrip(V):
    mu = weight_from_labels(V.labels)
    gaps = tuple(dominant_gaps(mu))
    ok = gaps == V.labels.dynkin and sum(mu) == V.labels.b
    return ok, f"gaps {gaps}, trace {sum(mu)}"


def check_pieri_dimensions(V, k_max=4):
    mu = V.highest_weight
    n = V.n
    for k in range(k_max + 1):
        lhs = sum(weyl_dimension(weight_add(mu, c)) for c in pieri_index_set(mu, k))
        rhs = weyl_dimension(mu) * math.comb(k + n - 1, n - 1)
        if lhs != rhs:
            return False, f"k={k}: {lhs} != {rhs}"
    return True, f"identity holds through k={k_max}"


def check_bracket_consistency(V, k_max=4):
    ok = verify_bracket_consistency(V.n, V, k_max)
    return ok, f"all spanning pairs through degree {k_max}"


def check_action_oracle(V, k_max=2):
    """Every column of every spanning operator's matrix equals `act` on that
    basis vector: the block assembly against the term-by-term action."""
    for k in range(k_max + 1):
        src = graded_basis(V, k)
        for name, op in spanning_operators(V.n):
            m = operator_matrix(op, V, k)
            dst = graded_basis(V, k + op.degree_shift())
            for mono, start in src.items():
                for q in range(V.dim):
                    image = act(op, GradedElement(k, {(mono, q): 1}), V)
                    if m.column(start + q) != {dst[x] + r: v for (x, r), v in image.coords.items()}:
                        return False, f"{name} column {(mono, q)} at degree {k} differs from act"
    return True, f"every spanning matrix column equals act through degree {k_max}"


def check_chevalley_relations(V, k_max=2, gens=None):
    """Defining sl(n+1) triple relations as exact operator identities."""
    n = V.n
    g = gens if gens is not None else chevalley_generators(n)
    for k in range(k_max + 1):
        for i in range(n):
            if not commutator_equals(g.h[i], g.e[i], V, k, operator_matrix(g.e[i], V, k).scale(2)):
                return False, f"[h_{i+1}, e_{i+1}] != 2e at degree {k}"
            if not commutator_equals(g.h[i], g.f[i], V, k, operator_matrix(g.f[i], V, k).scale(-2)):
                return False, f"[h_{i+1}, f_{i+1}] != -2f at degree {k}"
            for j in range(n):
                h = operator_matrix(g.h[i], V, k) if i == j else None
                if not commutator_equals(g.e[i], g.f[j], V, k, h):
                    return False, f"[e_{i+1}, f_{j+1}] wrong at degree {k}"
    return True, f"triple relations hold through degree {k_max}"


def check_sigma2_identity(V):
    mu = V.highest_weight
    report = full_report(V, "sigma2")
    if not report.residual_is_zero:
        return False, "nonzero residual"
    if sum(report.multiplicities) != sigma2_tilde(V).rows:
        return False, f"multiplicities {report.multiplicities} do not fill the space"
    i1 = eligible_indices(mu, 1)
    bad = [i + 1 for i, m in enumerate(report.multiplicities) if m and (i + 1) not in i1]
    if bad:
        return False, f"roots at positions {bad} realized outside the eligible set"
    return True, f"roots {[str(r) for r in report.roots]} mult {report.multiplicities}"


def check_adjoint_identities(V):
    rep, rep_t = full_report(V, "adjoint"), full_report(V, "adjoint_dual")
    ok = rep.residual_is_zero and rep_t.residual_is_zero
    ok = ok and sum(rep.multiplicities) == V.n * V.dim
    ok = ok and sum(rep_t.multiplicities) == V.n * V.dim
    return ok, f"mult {rep.multiplicities} / {rep_t.multiplicities}"


def _dual_summand_admissible(mu, r):
    # mu - eps_r keeps integer dominant gaps iff the gap below r absorbs it
    n = len(mu)
    if r < n and mu[r - 1] - mu[r] < 1:
        return False
    return True


def check_projector_suite(V):
    n = V.n
    mu = V.highest_weight
    d = n * V.dim
    for dual in (False, True):
        total = Matrix.zeros(d, d)
        projectors = []
        for r in range(1, n + 1):
            p = tensor_projector(V, r, dual)
            if p @ p != p:
                return False, f"P_{r} (dual={dual}) not idempotent"
            if dual:
                predicted = (
                    weyl_dimension(weight_add(mu, tuple(-(t == r - 1) for t in range(n))))
                    if _dual_summand_admissible(mu, r)
                    else 0
                )
            else:
                shift = tuple(int(t == r - 1) for t in range(n))
                predicted = (
                    weyl_dimension(weight_add(mu, shift))
                    if shift in pieri_index_set(mu, 1)
                    else 0
                )
            if rank(p) != predicted:
                return False, f"rank P_{r} (dual={dual}) = {rank(p)} != {predicted}"
            projectors.append(p)
            total = total + p
        if total != Matrix.identity(d):
            return False, f"projectors (dual={dual}) do not resolve the identity"
        for a in range(len(projectors)):
            for b in range(a + 1, len(projectors)):
                if not (projectors[a] @ projectors[b]).is_zero():
                    return False, f"P_{a+1} P_{b+1} != 0 (dual={dual})"
    return True, "idempotence, orthogonality, resolution, ranks"


def check_block_spectra(V):
    """The dominant-weight-block answers of the command line, multiplicities
    from traces, against the all-columns oracle, multiplicities from ranks:
    identity reports and every projector rank."""
    for name in OPERATORS:
        on_blocks = block_report(V, name)
        full = full_report(V, name)
        if on_blocks != full:
            return False, f"{name}: blocks {on_blocks} != full {full}"
    for dual in (False, True):
        for r in range(1, V.n + 1):
            on_blocks = projector_rank(V, r, dual)
            full = rank(tensor_projector(V, r, dual))
            if on_blocks != full:
                return False, f"rank P_{r} (dual={dual}): blocks {on_blocks} != full {full}"
    return True, "identity reports and projector ranks match the full matrices"


def check_spectrum_oracle(V):
    """The brute-force rational spectrum of each block operator is complete
    and is exactly its predicted roots of nonzero measured multiplicity, with
    those multiplicities."""
    if V.n * V.dim > ORACLE_MAX_DIM:
        return True, f"n*dim = {V.n * V.dim} exceeds the oracle's cap; nothing to verify"
    for name in OPERATORS:
        spectrum, complete = brute_force_spectrum(full_operator(V, name))
        report = block_report(V, name)
        measured = {r: m for r, m in zip(report.roots, report.multiplicities) if m}
        if not complete or spectrum != measured:
            return False, f"{name}: oracle spectrum {spectrum} (complete: {complete}) != {measured}"
    return True, "every block operator's rational spectrum is the predicted one"


def _tensor_equivariance_generators(V, dual):
    """Matrices of the diagonal action on (dual) vector rep tensor V."""
    n = V.n
    idv = Matrix.identity(V.dim)
    idn = Matrix.identity(n)
    gens = []
    for i in range(n):
        for j in range(n):
            if dual:
                first = Matrix(n, n, {(j, i): -1})
            else:
                first = Matrix(n, n, {(i, j): 1})
            gens.append(kron(first, idv) + kron(idn, V.e(i, j)))
    return gens


def check_projector_equivariance(V):
    for dual in (False, True):
        gens = _tensor_equivariance_generators(V, dual)
        for r in range(1, V.n + 1):
            p = tensor_projector(V, r, dual)
            for g in gens:
                if p @ g != g @ p:
                    return False, f"P_{r} (dual={dual}) does not commute with the action"
    return True, "projectors commute with the diagonal action"


def check_q_equivalence(V, c_max=3):
    mu = V.highest_weight
    for j in range(c_max + 1):
        for c in pieri_index_set(mu, j):
            closed = q_coefficient(mu, c)
            brute = q_coefficient_bruteforce(V, c)
            if closed != brute:
                return False, f"c={c}: closed {closed} != brute {brute}"
    return True, f"all shifts through |c|={c_max}"


def check_chain_oracle(V, k_max=3):
    """Every chain vector p^c (1 (x) v_q) through degree k_max, as its ints,
    against the p_i operator matrices applied factor by factor times its den.
    The oracle lowers c's last nonzero exponent where the chain vectors lower
    the first, so the two also differ in the order of the commuting factors."""
    n = V.n
    prev = {((0,) * n, q): {q: 1} for q in range(V.dim)}
    for k in range(1, k_max + 1):
        cur = {}
        for c in graded_basis(V, k):
            i = max(t for t, x in enumerate(c) if x)
            lower = c[:i] + (c[i] - 1,) + c[i + 1:]
            p_i = operator_matrix(pseudo_translation_op(n, i), V, k - 1)
            for q in range(V.dim):
                cur[(c, q)] = vec = p_i.apply(prev[(lower, q)])
                den, ints = _chain_vector(V, c, q)
                if {r: v * den for r, v in vec.items()} != ints:
                    return False, f"chain vector of {c} on basis vector {q} differs"
        prev = cur
    return True, f"every chain vector matches the p_i matrices through degree {k_max}"


def check_criterion_vs_bruteforce(V, k_max=4):
    """The closed-form verdict against the first chain-rank deficiency, after
    the chain ranks through k_max against the all-dominant-weight oracle."""
    for k in range(k_max + 1):
        fast, oracle = up_submodule_rank(V, k), _all_dominant_rank(V, k)
        if fast != oracle:
            return False, f"degree {k}: chain rank {fast}, all dominant weights {oracle}"
    wit = criterion(V.highest_weight)
    deficient = first_rank_deficiency(V, k_max)
    if wit.reducible:
        expected = wit.first_failure_degree if wit.first_failure_degree <= k_max else None
        ok = deficient == expected
        return ok, f"first deficiency {deficient}, witness {wit.first_failure_degree}"
    return deficient is None, f"irreducible but deficiency at {deficient}"


def check_criterion_equivalence(V):
    ok = criterion_equivalence_check(V.highest_weight)
    return ok, "both closed forms agree"


def check_jordan_holder(V):
    wit = criterion(V.highest_weight)
    if not wit.reducible:
        return True, "irreducible; nothing to verify"
    report = jordan_holder(V)  # raises ConsistencyViolationError on defect
    if not report.corollary_consistent:
        return False, f"threshold mismatch: witness {report.k}, corollary {report.corollary_k}"
    if report.finite_dim_flag:
        gaps = dominant_gaps(V.highest_weight)
        horizon = report.k + sum(gaps) + 2
        total = 0
        j = 0
        while j <= horizon:
            r = up_submodule_rank(V, j)
            total += r
            if r == 0:
                break
            j += 1
        else:
            return False, "graded ranks did not terminate"
        if total != report.finite_dim_total:
            return False, f"graded total {total} != predicted {report.finite_dim_total}"
    return True, f"series verified (k={report.k}, r={report.residual_index})"


def _casimir(V, k):
    """C_k = sum_ij X_ij X_ji + (sum_i X_ii)^2 - sum_j (d_j p_j + p_j d_j) on
    the degree-k piece: the quadratic Casimir of sl(n+1) with E_ij = X_ij,
    E_0j = d_j, E_j0 = -p_j and E_00 = -sum_i X_ii, from operator matrices."""
    n = V.n
    dim = graded_dimension(V, k)
    total, trace = Matrix.zeros(dim, dim), Matrix.zeros(dim, dim)
    for i in range(n):
        trace = trace + operator_matrix(scaling_op(n, i, i), V, k)
        for j in range(n):
            total = total + (
                operator_matrix(scaling_op(n, i, j), V, k)
                @ operator_matrix(scaling_op(n, j, i), V, k)
            )
    total = total + trace @ trace
    for j in range(n):
        d_j, p_j = derivative_op(n, j), pseudo_translation_op(n, j)
        total = total - operator_matrix(d_j, V, k + 1) @ operator_matrix(p_j, V, k)
        if k:
            total = total - operator_matrix(p_j, V, k - 1) @ operator_matrix(d_j, V, k)
    return total


def check_casimir(V, k_max=3):
    """The quadratic Casimir acts on every graded piece by the scalar that
    the central character of the highest weight predicts."""
    c = _central_character(V.highest_weight)
    for k in range(k_max + 1):
        casimir = _casimir(V, k)
        if casimir != Matrix.identity(casimir.rows).scale(c):
            return False, f"C_{k} is not {c} * Id"
    return True, f"C_k = {c} * Id through degree {k_max}"


def check_derivative_surjectivity(V, k_max=3):
    for k in range(1, k_max + 1):
        mats = [operator_matrix(derivative_op(V.n, l), V, k) for l in range(V.n)]
        low = graded_dimension(V, k - 1)
        for l, m in enumerate(mats):
            if rank(m) != low:
                return False, f"d_{l+1} not surjective from degree {k}"
        if rank(block([[m] for m in mats])) != graded_dimension(V, k):
            return False, f"joint derivative kernel nonzero at degree {k}"
    return True, f"derivatives surjective with trivial joint kernel through {k_max}"


def check_cartan_diagonal(V, k_max=3):
    n = V.n
    euler = scaling_op(n, 0, 0)
    for l in range(1, n):
        euler = euler + scaling_op(n, l, l)
    for k in range(k_max + 1):
        m = operator_matrix(euler, V, k)
        if m != Matrix.identity(m.rows).scale(k + V.b):
            return False, f"euler field not (k+b)*Id at degree {k}"
        for i in range(n):
            mi = operator_matrix(scaling_op(n, i, i), V, k)
            expected = Matrix(
                mi.rows, mi.rows,
                {
                    (s + q, s + q): mono[i] + w[i]
                    for mono, s in graded_basis(V, k).items()
                    for q, w in enumerate(V.basis_weights)
                },
            )
            if mi != expected:
                return False, f"x_{i+1} d_{i+1} eigenvalues wrong at degree {k}"
    return True, f"diagonal action matches through degree {k_max}"


def _random_chain(rng, n, k):
    return tuple(rng.randint(0, n - 1) for _ in range(k))


def check_derivative_chain_identity(V, rng, cases=6, k_max=3, delta=triangle_delta):
    """Peeling a derivative through a chain of raisings, against the closed rule.

    `delta` is injectable so a mutated bookkeeping operator can be probed.
    """
    n = V.n
    for _ in range(cases):
        k = rng.randint(1, k_max)
        chain = sorted(_random_chain(rng, n, k))
        i = rng.randint(0, n - 1)
        q = rng.randint(0, V.dim - 1)
        vec = {graded_basis(V, 0)[(0,) * n] + q: 1}
        cur = dict(vec)
        for t, idx in enumerate(reversed(chain)):
            cur = operator_matrix(pseudo_translation_op(n, idx), V, t).apply(cur)
        lhs = operator_matrix(derivative_op(n, i), V, k).apply(cur)
        rhs = {}
        for s in range(k):
            rest = chain[:s] + chain[s + 1:]
            start = delta(i, chain[s], k, V).apply(vec)
            curs = start
            for t, idx in enumerate(reversed(rest)):
                curs = operator_matrix(pseudo_translation_op(n, idx), V, t).apply(curs)
            add_into(rhs, curs.items())
        if lhs != rhs:
            return False, f"chain {chain}, derivative {i+1}, vector {q}"
    return True, f"{cases} random chains agree"


def check_intertwiner(V, j_max=2):
    """Degree-raising map commutes with the scaling action, as full matrices."""
    n = V.n
    idn = Matrix.identity(n)
    for j in range(j_max + 1):
        tj = block([[operator_matrix(pseudo_translation_op(n, i), V, j) for i in range(n)]])
        dim_j = graded_dimension(V, j)
        for s in range(n):
            for t in range(n):
                op_j = operator_matrix(scaling_op(n, s, t), V, j)
                op_j1 = operator_matrix(scaling_op(n, s, t), V, j + 1)
                diag = kron(Matrix(n, n, {(s, t): 1}), Matrix.identity(dim_j)) + kron(
                    idn, op_j
                )
                if tj @ diag != op_j1 @ tj:
                    return False, f"intertwiner fails for x_{s+1}d_{t+1} at degree {j}"
    return True, f"exact intertwining through degree {j_max}"


def check_derivative_escape(V):
    """Below-threshold derivatives of the residual complement leave the chain span."""
    wit = criterion(V.highest_weight)
    if not wit.reducible:
        return True, "irreducible; nothing to verify"
    k = wit.first_failure_degree - 1
    j = k + 2
    mj = up_submodule_matrix(V, j)
    residual = kernel_basis(mj)
    if not residual:
        return False, f"no residual complement at degree {j}"
    low = up_submodule_matrix(V, j - 1)
    base_rank = rank(low)
    for l in range(V.n):
        dmat = operator_matrix(derivative_op(V.n, l), V, j)
        cols = []
        for vec in residual:
            sparse = {t: v for t, v in enumerate(vec) if v != 0}
            cols.append(dmat.apply(sparse))
        stacked = block([[low, Matrix.from_cols(cols, dmat.rows)]])
        if rank(stacked) <= base_rank:
            return False, f"d_{l+1} image of the residual stays inside the span"
    return True, f"all derivatives escape at degree {j}"


def check_submodule_invariance(V, j_max=2):
    """The chain span is stable under every spanning operator."""
    mats = {j: up_submodule_matrix(V, j) for j in range(j_max + 2)}
    ranks = {j: rank(m) for j, m in mats.items()}
    for j in range(j_max + 1):
        for name, op in spanning_operators(V.n):
            shift = op.degree_shift()
            tgt = j + shift
            if tgt < 0:
                continue
            om = operator_matrix(op, V, j)
            image = om @ mats[j]
            stacked = block([[mats[tgt], image]])
            if rank(stacked) != ranks[tgt]:
                return False, f"{name} pushes the degree-{j} span outside degree {tgt}"
    return True, f"span stable under the spanning set through degree {j_max}"


# -- sweep driver -----------------------------------------------------------------


class CheckRecord(namedtuple("CheckRecord", "point check ok detail")):
    __slots__ = ()


def run_selfcheck(n_max=2, degree_cap=4, seed=0, dim_cap=5000):
    """Run every suite over the sweep; returns a list of CheckRecord."""
    rng = random.Random(seed)
    records = []
    for n, dynkin, b in standard_sweep(n_max):
        point = (n, dynkin, b)
        V = cached_module(n, dynkin, b, dim_cap)
        checks = [
            ("module-invariants", lambda: check_module_invariants(V)),
            ("labels-roundtrip", lambda: check_labels_roundtrip(V)),
            ("pieri-dimensions", lambda: check_pieri_dimensions(V, degree_cap)),
            ("bracket-consistency", lambda: check_bracket_consistency(V, degree_cap)),
            ("action-oracle", lambda: check_action_oracle(V, min(degree_cap, 2))),
            ("chevalley-relations", lambda: check_chevalley_relations(V, min(degree_cap, 2))),
            ("characteristic-identity", lambda: check_sigma2_identity(V)),
            ("adjoint-identities", lambda: check_adjoint_identities(V)),
            ("projector-suite", lambda: check_projector_suite(V)),
            ("projector-equivariance", lambda: check_projector_equivariance(V)),
            ("block-spectra", lambda: check_block_spectra(V)),
            ("spectrum-oracle", lambda: check_spectrum_oracle(V)),
            ("q-closed-form-vs-oracle", lambda: check_q_equivalence(V, 3)),
            ("chain-oracle", lambda: check_chain_oracle(V, min(degree_cap, 3))),
            ("criterion-vs-bruteforce", lambda: check_criterion_vs_bruteforce(V, degree_cap)),
            ("criterion-equivalence", lambda: check_criterion_equivalence(V)),
            ("jordan-holder", lambda: check_jordan_holder(V)),
            ("casimir", lambda: check_casimir(V, min(degree_cap, 3))),
            ("derivative-surjectivity", lambda: check_derivative_surjectivity(V, min(degree_cap, 3))),
            ("cartan-diagonal", lambda: check_cartan_diagonal(V, min(degree_cap, 3))),
            ("derivative-chain-identity", lambda: check_derivative_chain_identity(V, rng)),
            ("intertwiner", lambda: check_intertwiner(V, 2)),
            ("derivative-escape", lambda: check_derivative_escape(V)),
            ("submodule-invariance", lambda: check_submodule_invariance(V, 2)),
        ]
        for name, fn in checks:
            try:
                ok, detail = fn()
            except (ConsistencyViolationError, DegenerateSpectrumError, MultiplicityAnomalyError) as exc:
                ok, detail = False, f"consistency violation: {exc}"
            records.append(CheckRecord(point, name, ok, detail))
        clear_caches()  # no later point reuses this module or its memos
    return records
