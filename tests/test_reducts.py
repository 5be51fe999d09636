import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import random_system, refines
from reference import _coeff_identity_holds, substitution_lemma_check

from linid.algebra import holds_in, reduct_algebra
from linid.reducts import (
    AffineTerm,
    affine_coefficients,
    affine_terms,
    coefficient_system,
    excluding_row,
    parse_affine,
    smith_diagonalize,
    solve_mod,
    solve_some_finite_ring,
    verify_witness,
)
from linid.terms import (
    App,
    Symbol,
    Var,
    format_system,
    parse_system,
    system,
)

S4 = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
S5 = "x=q(x,y,x); p(x,y,y)=p(x,y,x); p(x,x,y)=q(x,x,y)=q(y,x,x)"
S7 = "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)"
G_SYSTEM = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y); q(x,y,x)=q(y,x,x)"
PQ = frozenset((Symbol.P, Symbol.Q))


def test_affine_term_validation_and_printing():
    t = AffineTerm(5, (3, 3, 0))
    assert str(t) == "3x+3y"
    assert str(AffineTerm(5, (1, 0, 0))) == "x"
    assert str(AffineTerm(5, (1, 2, 3))) == "x+2y+3z"
    with pytest.raises(ValueError):
        AffineTerm(5, (1, 1, 0))  # sums to 2
    with pytest.raises(ValueError):
        AffineTerm(1, (1, 0, 0))


def test_parse_affine_round_trip():
    for text in ("x", "3x+3y", "2x+2y+2z", "4x+y+z", "2y+4z"):
        assert str(parse_affine(text, 5)) == text
    assert parse_affine("3x+3z", 5).coeffs == (3, 0, 3)
    with pytest.raises(ValueError):
        parse_affine("3w", 5)


def test_affine_terms_counts_and_order():
    assert [str(t) for t in affine_terms(2, 3)] == ["x", "y", "z", "x+y+z"]
    assert len(affine_terms(5, 3)) == 25
    assert len(affine_terms(5, 2)) == 5
    assert len(affine_terms(7, 3)) == 49
    names5 = [str(t) for t in affine_terms(5, 3)]
    for needed in ("2x+2y+2z", "3x+3y", "x+2y+3z"):
        assert needed in names5
    # projections first, rest in coefficient order, no duplicates
    assert names5[:3] == ["x", "y", "z"]
    assert len(set(names5)) == 25
    for t in affine_terms(6, 3):
        assert sum(t.coeffs) % 6 == 1
    with pytest.raises(ValueError):
        affine_terms(1, 3)


def test_coefficient_system_single_identity():
    linsys = coefficient_system(parse_system("p(x,x,y)=p(x,y,y)"))
    # rows: x-row a+b = a and y-row c = b+c, both reducing to b = 0,
    # then the affine row
    assert linsys.symbols == (Symbol.P,)
    assert linsys.matrix == ((0, 1, 0), (0, -1, 0), (1, 1, 1))
    assert linsys.rhs == (0, 0, 1)


def test_coefficient_system_bare_variable_side():
    linsys = coefficient_system(parse_system("x=p(x,x,y)"))
    # x-row: 1 = a+b; y-row: 0 = c; affine row
    assert linsys.matrix == ((-1, -1, 0), (0, 0, -1), (1, 1, 1))
    assert linsys.rhs == (-1, 0, 1)


def test_coefficient_system_7_forces_contradiction():
    rv = solve_some_finite_ring(coefficient_system(parse_system(S7)))
    assert not rv.satisfiable
    assert rv.blocked_rows and rv.blocked_gcd == 1


def _brute_solvable(matrix, rhs, n):
    cols = len(matrix[0]) if matrix else 0
    for v in itertools.product(range(n), repeat=cols):
        if all(
            sum(a * x for a, x in zip(row, v)) % n == b % n
            for row, b in zip(matrix, rhs)
        ):
            return True
    return not matrix or all(b % n == 0 for b in rhs) if cols == 0 else False


def _det(matrix):
    """Determinant by elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(a)):
        pivot = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _mat_vec(matrix, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in matrix)


def test_smith_diagonalize_against_brute_force():
    rng = random.Random(99)
    for _ in range(120):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        matrix = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        form = smith_diagonalize(matrix)
        diag, u = form.diag, form.transform
        c = _mat_vec(u, rhs)
        assert form.apply(rhs) == c
        # divisibility chain
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert all(d >= 0 for d in diag)
        # U is unimodular, and U A = D V^-1: row i of U A is a multiple of
        # d_i, and zero past the rank
        assert len(u) == m and abs(_det(u)) == 1
        ua = [_mat_vec(list(zip(*matrix)), row) for row in u]
        for i, row in enumerate(ua):
            d = diag[i] if i < len(diag) else 0
            assert all(x == 0 for x in row) if d == 0 else all(x % d == 0 for x in row)
        for n in (2, 3, 4, 5, 6, 7):
            diag_ok = all(
                ci % math.gcd(diag[i] if i < len(diag) else 0, n) == 0
                for i, ci in enumerate(c)
            )
            assert diag_ok == _brute_solvable(matrix, rhs, n)
            assert form.solvable_mod(rhs, n) == diag_ok
            # the excluding row is the first row d_i * w = c_i with no w in Z_n
            unsolvable_rows = [
                i for i, ci in enumerate(c)
                if all((w * (diag[i] if i < len(diag) else 0) - ci) % n for w in range(n))
            ]
            assert excluding_row(diag, c, n) == next(iter(unsolvable_rows), None)
    # on coefficient systems, U b is the transformed right-hand side that the
    # ring verdict reports
    systems = [parse_system(text) for text in CORPUS]
    systems += [random_system(rng, num_vars=v) for v in (2, 3) for _ in range(15)]
    for s in systems:
        linsys = coefficient_system(s)
        form = smith_diagonalize(linsys.matrix)
        verdict = solve_some_finite_ring(linsys)
        assert abs(_det(form.transform)) == 1
        assert form.diag == verdict.snf_diag
        assert _mat_vec(form.transform, linsys.rhs) == verdict.snf_rhs


def _canonical_candidates(n, k):
    """Projections first, then the other tuples summing to 1 mod n in
    lexicographic order."""
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    rest = sorted(
        c for c in itertools.product(range(n), repeat=k) if sum(c) % n == 1 and c not in units
    )
    return units + rest


def _least_witness_by_substitution(s, n):
    """The first product-ordered assignment that verifies pointwise."""
    symbols = sorted(s.signature, key=lambda sym: sym.order)
    for combo in itertools.product(*[_canonical_candidates(n, sym.arity) for sym in symbols]):
        witness = {sym: AffineTerm(n, c) for sym, c in zip(symbols, combo)}
        if verify_witness(s, n, witness):
            return witness
    return None


@pytest.mark.parametrize("n", range(2, 8))
def test_solve_mod_returns_the_least_witness(n):
    rng = random.Random(1000 + n)
    P, Q, T, S = Symbol.P, Symbol.Q, Symbol.T, Symbol.S
    # one, two and three symbols, binary and ternary; a lone binary symbol
    # or a binary pair has too few 2-variable terms for a random chain
    shapes = [
        ({P}, 2), ({P}, 3), ({T}, 3),
        ({P, Q}, 2), ({P, Q}, 3), ({T, S}, 3), ({T, P}, 2), ({T, P}, 3),
        ({T, P, Q}, 2), ({T, S, P}, 2),
    ]
    found = 0
    for signature, num_vars in shapes:
        for _ in range(5):
            s = random_system(rng, frozenset(signature), num_vars)
            solved = solve_mod(coefficient_system(s), n)
            assert solved == _least_witness_by_substitution(s, n), (format_system(s), n)
            found += solved is not None
    assert found  # some systems are satisfiable, so witnesses are compared


def test_solve_mod_empty_system_least_solution_is_projections():
    linsys = coefficient_system(system([], signature=PQ))
    for n in (2, 3, 5, 7, 12):
        sol = solve_mod(linsys, n)
        assert sol is not None
        assert sol[Symbol.P].coeffs == (1, 0, 0)
        assert sol[Symbol.Q].coeffs == (1, 0, 0)


def test_solve_mod_s4_weakened():
    weakened = parse_system("p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)")
    linsys = coefficient_system(weakened)
    sol = solve_mod(linsys, 5)
    assert sol is not None
    assert verify_witness(weakened, 5, sol)
    # the published witness lies in the solution set
    both = {Symbol.P: AffineTerm(5, (2, 2, 2)), Symbol.Q: AffineTerm(5, (2, 2, 2))}
    assert verify_witness(weakened, 5, both)


def test_solve_mod_s4_unsat():
    linsys = coefficient_system(parse_system(S4))
    assert solve_mod(linsys, 5) is None
    with pytest.raises(ValueError):
        solve_mod(linsys, 1)


@pytest.mark.parametrize("text", [S4, S5, S7])
def test_candidates_ring_unsat_and_sweep_agrees(text):
    linsys = coefficient_system(parse_system(text))
    rv = solve_some_finite_ring(linsys)
    assert not rv.satisfiable
    assert rv.prime is None and rv.witness is None
    for n in range(2, 65):
        assert solve_mod(linsys, n) is None


def test_g_system_satisfiable_with_verified_witnesses():
    s = parse_system(G_SYSTEM)
    rv = solve_some_finite_ring(coefficient_system(s))
    assert rv.satisfiable
    assert verify_witness(s, rv.prime, dict(rv.witness))
    # the published Z5 witness verifies independently of the least one
    wit = {Symbol.P: parse_affine("3x+3z", 5), Symbol.Q: parse_affine("3x+3y", 5)}
    assert verify_witness(s, 5, wit)
    assert solve_mod(coefficient_system(s), 5) is not None


def test_projection_satisfiable_systems_admit_prime_2():
    # satisfied by projections => affine with unit vectors => prime 2 works
    for text in ("", "p(x,x,y)=q(x,x,y)", "x=p(x,y,y)", "t(x,y)=x"):
        s = parse_system(text) if text else system([], signature=PQ)
        rv = solve_some_finite_ring(coefficient_system(s))
        assert rv.satisfiable and rv.prime == 2


def test_ring_verdict_json_shapes():
    sat = solve_some_finite_ring(coefficient_system(parse_system(G_SYSTEM)))
    data = sat.to_json()
    assert data["status"] == "satisfiable"
    assert set(data["witness"]) == {"p", "q"}
    unsat = solve_some_finite_ring(coefficient_system(parse_system(S4)))
    data = unsat.to_json()
    assert data["status"] == "unsatisfiable-all-finite-rings"
    assert data["snf"]["diag"]
    assert data["blocked_gcd"] in (0, 1) or data["excluded_primes"]


def test_ring_verdict_solvable_mod_matches_the_all_rows_rule():
    # reference: the all-rows rule, gcd(d_i, n) divides c_i on every row
    rng = random.Random(64)
    systems = [parse_system(text) for text in CORPUS]
    systems += [
        random_system(rng, sig, v)
        for sig in (PQ, frozenset((Symbol.P, Symbol.T)))
        for v in (2, 3)
        for _ in range(40)
    ]
    outcomes = set()
    for s in systems:
        verdict = solve_some_finite_ring(coefficient_system(s))
        diag = verdict.snf_diag
        for n in range(2, 65):
            want = all(
                c % math.gcd(diag[i] if i < len(diag) else 0, n) == 0
                for i, c in enumerate(verdict.snf_rhs)
            )
            assert verdict.solvable_mod(n) == want, (format_system(s), n)
            outcomes.add(want)
    assert outcomes == {True, False}


CORPUS = [
    S4,
    S5,
    S7,
    G_SYSTEM,
    "p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)",
    "x=p(x,x,y); q(y,x,x)=q(x,y,x)=q(x,x,y)",
    "p(x,x,y)=p(x,y,x)=q(x,x,y)=q(x,y,x); p(x,y,y)=q(y,x,x)",
    "x=q(x,x,y); p(x,x,y)=q(x,y,x)=q(y,x,x)",
]


@pytest.mark.parametrize("n", range(2, 14))
def test_cross_oracle_tables_vs_coefficients(n):
    algebra = reduct_algebra(n)
    for text in CORPUS:
        s = parse_system(text)
        by_tables = holds_in(s, algebra).satisfiable
        by_solver = solve_mod(coefficient_system(s), n) is not None
        assert by_tables == by_solver, (text, n)


def test_cross_oracle_three_symbols():
    # systems mixing a binary symbol with both ternary ones exercise the
    # general backtracking search and the binary affine slices
    systems = [
        "t(x,y)=p(x,y,y); q(x,x,y)=t(x,y)",
        "t(x,y)=p(x,y,x)=q(y,x,x); t(y,x)=p(y,x,y)",
        "x=t(x,y); p(x,x,y)=q(x,y,x)=t(x,y)",
    ]
    for n in (2, 3, 4, 5, 6, 7):
        algebra = reduct_algebra(n)
        for text in systems:
            s = parse_system(text)
            assert holds_in(s, algebra).satisfiable == (
                solve_mod(coefficient_system(s), n) is not None
            ), (text, n)


def test_refinement_monotonicity_of_solutions():
    stronger = parse_system("p(x,x,y)=p(x,y,y)=p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)")
    weaker = parse_system(S4)
    assert refines(weaker, stronger)
    for n in (2, 3, 5, 7):
        sol = solve_mod(coefficient_system(stronger), n)
        if sol is not None:
            assert verify_witness(weaker, n, sol)


def test_substitution_lemma_all_shapes_all_primes():
    report = substitution_lemma_check((2, 3, 5, 7))
    assert report.shapes_checked == 41
    assert report.ok
    assert report.counterexamples == ()


def test_substitution_lemma_specific_shapes():
    # p(x,y,z)=p(x,z,y): projections on x and the alpha*x+beta*(y+z) family
    # satisfy both substitution instances and the identity itself
    left = App(Symbol.P, (0, 1, 2))
    right = App(Symbol.P, (0, 2, 1))
    for p in (2, 3, 5, 7):
        for w in affine_coefficients(p, 3):
            both_sub = _coeff_identity_holds(
                App(Symbol.P, (0, 1, 0)), App(Symbol.P, (0, 0, 1)), w, p
            )
            holds = _coeff_identity_holds(left, right, w, p)
            assert holds == (w[1] % p == w[2] % p)
            if both_sub:
                assert holds

    # p(x,y,x)=p(z,x,z): the two substitution instances are jointly
    # unsatisfiable over every prime
    for p in (2, 3, 5, 7):
        for w in affine_coefficients(p, 3):
            zx = _coeff_identity_holds(App(Symbol.P, (0, 1, 0)), Var(0), w, p)
            zy = _coeff_identity_holds(
                App(Symbol.P, (0, 1, 0)), App(Symbol.P, (1, 0, 1)), w, p
            )
            assert not (zx and zy)

    # identical sides pass vacuously for every witness
    t = App(Symbol.P, (0, 1, 1))
    assert _coeff_identity_holds(t, t, (0, 0, 1), 5)


def test_verify_witness_rejects_wrong_data():
    s = parse_system(S4)
    wit = {Symbol.P: AffineTerm(5, (1, 0, 0)), Symbol.Q: AffineTerm(5, (2, 2, 2))}
    assert not verify_witness(s, 5, wit)
    assert not verify_witness(s, 3, wit)  # modulus mismatch
    assert not verify_witness(s, 5, {Symbol.P: AffineTerm(5, (1, 0, 0))})
