import itertools
import random

import pytest

from conftest import block_of, orbit_images, random_system, refines
from reference import check_wnu_bridge
from linid.algebra import (
    CloneCapExceeded,
    OperationTable,
    SatVerdict,
    clone_slice,
    holds_in,
    induced_partition,
    majority_a,
    projection,
    reduct_algebra,
    semilattice_b,
)
from linid.terms import (
    App,
    Symbol,
    Var,
    format_system,
    parse_system,
    symmetry_tables,
    term_universe,
)

S4 = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
MASTER2 = "x=p(x,x,y)=p(x,y,y)=p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
MASTER6 = "x=p(x,x,y)=p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)"
PQ = frozenset((Symbol.P, Symbol.Q))


def test_semilattice_meet_with_zero_bottom():
    b = semilattice_b()
    assert semilattice_b() is b  # built once per process
    meet = b.ops[0]
    assert meet.apply((0, 1)) == 0
    assert meet.apply((1, 0)) == 0
    assert meet.apply((1, 1)) == 1
    # commutative, associative, idempotent
    for x, y, z in itertools.product(range(2), repeat=3):
        assert meet.apply((x, y)) == meet.apply((y, x))
        assert meet.apply((meet.apply((x, y)), z)) == meet.apply((x, meet.apply((y, z))))


def test_majority_values():
    a = majority_a(3)
    assert majority_a(3) is a and majority_a(4) is majority_a(4)
    f = a.ops[0]
    assert f.apply((0, 1, 0)) == 0
    assert f.apply((0, 1, 2)) == 0  # pairwise distinct: first argument
    assert f.apply((2, 2, 2)) == 2
    assert f.apply((1, 2, 2)) == 2
    with pytest.raises(ValueError):
        majority_a(1)


def test_reduct_algebra_ops():
    r5 = reduct_algebra(5)
    assert len(r5.ops) == 25
    names = {op.name for op in r5.ops}
    # the distinct entries from the published ternary inventory all appear
    printed = {
        "x", "y", "z", "4x+2y", "4x+2z", "4y+2z", "2x+4y", "2x+4z",
        "3x+3z", "3x+3y", "3y+3z", "x+2y+3z", "x+3y+2z", "2x+y+3z",
        "2x+3y+z", "3x+2y+z", "3x+y+2z", "4x+y+z", "x+y+4z", "x+4y+z",
        "2x+2y+2z",
    }
    assert printed <= names
    two = next(op for op in r5.ops if op.name == "2x+2y+2z")
    assert two.apply((1, 0, 0)) == 2
    with pytest.raises(ValueError):
        reduct_algebra(1)


def test_ternary_slice_of_semilattice_is_the_seven_meets():
    sl = clone_slice(semilattice_b(), 3)
    assert len(sl) == 7
    # independent oracle: meets over nonempty subsets of the arguments
    expected = set()
    for subset in range(1, 8):
        table = []
        for args in itertools.product(range(2), repeat=3):
            vals = [args[i] for i in range(3) if subset >> i & 1]
            table.append(min(vals))
        expected.add(tuple(table))
    assert {op.table for op in sl.ops} == expected


def test_binary_slice_of_majority_is_projections():
    sl = clone_slice(majority_a(3), 2)
    assert len(sl) == 2
    assert [op.name for op in sl.ops] == ["pi1", "pi2"]


def _is_majority(op: OperationTable) -> bool:
    m = op.size
    return all(
        op.apply((x, x, y)) == x and op.apply((x, y, x)) == x and op.apply((y, x, x)) == x
        for x in range(m)
        for y in range(m)
    )


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ternary_slice_of_majority_members(m):
    sl = clone_slice(majority_a(m), 3)
    projections_ = {projection(m, 3, i).table for i in range(3)}
    for op in sl.ops:
        assert op.table in projections_ or _is_majority(op)


def test_clone_slices_are_closed_under_basic_composition():
    rng = random.Random(5)
    for algebra in (semilattice_b(), majority_a(3), reduct_algebra(4)):
        for arity in (2, 3):
            sl = clone_slice(algebra, arity)
            tables = {op.table for op in sl.ops}
            for _ in range(30):
                g = rng.choice(algebra.ops)
                hs = [rng.choice(sl.ops) for _ in range(g.arity)]
                composed = tuple(
                    g.apply(tuple(h.apply(args) for h in hs))
                    for args in itertools.product(range(algebra.size), repeat=arity)
                )
                assert composed in tables


def test_clone_cap_exceeded():
    with pytest.raises(CloneCapExceeded):
        clone_slice(semilattice_b(), 3, cap=3)


def _first_witness_by_product(s, algebra):
    """Reference for holds_in: walk every choice of slice operations in slice
    order, the last symbol fastest, and check each identity at every
    assignment with a local evaluator; the first choice that passes wins."""
    symbols = sorted(s.signature, key=lambda sy: sy.order)
    slices = [clone_slice(algebra, sym.arity).ops for sym in symbols]
    assignments = list(itertools.product(range(algebra.size), repeat=s.num_vars))

    def value(t, ops, args):
        if not isinstance(t, App):
            return args[t.index]
        idx = 0
        for v in t.pattern:
            idx = idx * algebra.size + args[v]
        return ops[t.sym].table[idx]

    for choice in itertools.product(*slices):
        ops = dict(zip(symbols, choice))
        if all(
            value(i.left, ops, args) == value(i.right, ops, args)
            for i in s.identities
            for args in assignments
        ):
            return SatVerdict(True, tuple(zip(symbols, choice)))
    return SatVerdict(False, None)


@pytest.mark.parametrize(
    "algebra",
    [semilattice_b(), majority_a(2), majority_a(3), majority_a(4), reduct_algebra(2), reduct_algebra(3)],
    ids=["B", "A2", "A3", "A4", "R2", "R3"],
)
def test_holds_in_returns_the_first_witness(algebra):
    rng = random.Random(algebra.size * 31 + len(algebra.ops))
    P, Q, T, S = Symbol.P, Symbol.Q, Symbol.T, Symbol.S
    # one, two and three symbols; a lone binary symbol has too few
    # 2-variable terms for a random chain
    shapes = [
        ({P}, 2), ({P}, 3), ({T}, 3),
        ({P, Q}, 2), ({P, Q}, 3), ({T, P}, 2), ({T, S}, 3),
        ({P, Q, T}, 2), ({P, Q, T}, 3), ({T, S, P}, 2),
    ]
    found = {1: 0, 2: 0, 3: 0}
    for signature, num_vars in shapes:
        for _ in range(20):
            s = random_system(rng, frozenset(signature), num_vars)
            verdict = holds_in(s, algebra)
            assert verdict == _first_witness_by_product(s, algebra), format_system(s)
            found[len(signature)] += verdict.satisfiable
    # witnesses are compared for every number of symbols
    assert all(found.values()), found


def test_holds_in_clone_cap_exceeded():
    s = parse_system(S4)
    assert holds_in(s, semilattice_b()).satisfiable
    with pytest.raises(CloneCapExceeded):
        holds_in(s, semilattice_b(), cap=3)


def test_holds_in_s4_in_majority():
    v = holds_in(parse_system(S4), majority_a(3))
    assert v.satisfiable
    witness = {sym.value: op.name for sym, op in v.witness}
    assert witness["p"] == "pi1"
    assert witness["q"] == "f"


def test_holds_in_s4_in_semilattice():
    v = holds_in(parse_system(S4), semilattice_b())
    assert v.satisfiable
    # exhaustive oracle over all 7x7 witness pairs: the meet of all three
    # variables works for both symbols and is the reported witness
    meet3 = tuple(
        min(args) for args in itertools.product(range(2), repeat=3)
    )
    wit = dict(v.witness)
    assert wit[Symbol.P].table == meet3
    assert wit[Symbol.Q].table == meet3


def test_master_system_unsat_in_semilattice():
    assert not holds_in(parse_system(MASTER2), semilattice_b()).satisfiable
    assert not holds_in(parse_system(MASTER6), semilattice_b()).satisfiable


def test_trivial_identity_system():
    assert not holds_in(parse_system("x=y"), semilattice_b()).satisfiable
    empty = holds_in(parse_system(""), majority_a(3))
    assert empty.satisfiable and empty.witness == ()


def test_holds_in_symmetry_invariance():
    rng = random.Random(17)
    group_order = len(symmetry_tables(PQ, 2).perms)
    b, a = semilattice_b(), majority_a(3)
    systems = [
        parse_system(S4),
        parse_system(MASTER2),
        parse_system("p(x,x,y)=q(y,x,x)"),
        parse_system("x=p(x,y,x); q(x,x,y)=q(y,x,x)"),
    ]
    for s in systems:
        sat_b = holds_in(s, b).satisfiable
        sat_a = holds_in(s, a).satisfiable
        for moved in orbit_images(s, PQ, rng.sample(range(group_order), 10)):
            assert holds_in(moved, b).satisfiable == sat_b
            assert holds_in(moved, a).satisfiable == sat_a


def test_witness_monotone_under_refinement():
    # a witness for a system carries to any system with a finer closure
    stronger = parse_system("p(x,x,y)=p(x,y,y)=p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)")
    weaker = parse_system(S4)
    u = term_universe(PQ, 2)
    assert refines(weaker, stronger)
    for algebra in (semilattice_b(), majority_a(3)):
        v = holds_in(stronger, algebra)
        if not v.satisfiable:
            continue
        wit = dict(v.witness)
        part = induced_partition(wit, u, algebra)
        assert refines(weaker, part)


def test_induced_partition_examples():
    u = term_universe(PQ, 2)
    a = majority_a(3)
    f = a.ops[0]
    pi1 = projection(3, 3, 0)

    part = induced_partition({Symbol.P: pi1, Symbol.Q: f}, u, a)
    xblock = {str(t) for t in block_of(part, Var(0))}
    assert xblock == {
        "x", "p(x,x,y)", "p(x,y,y)", "p(x,y,x)",
        "q(x,x,y)", "q(x,y,x)", "q(y,x,x)",
    }
    yblock = {str(t) for t in block_of(part, Var(1))}
    assert len(yblock) == 7 and "y" in yblock
    assert (part.num_vars, part.signature) == (2, PQ)

    part = induced_partition({Symbol.P: f, Symbol.Q: f}, u, a)
    xblock = {str(t) for t in block_of(part, Var(0))}
    assert xblock == {
        "x", "p(x,x,y)", "p(x,y,x)", "p(y,x,x)",
        "q(x,x,y)", "q(x,y,x)", "q(y,x,x)",
    }

    part = induced_partition({Symbol.P: pi1, Symbol.Q: pi1}, u, a)
    xblock = {str(t) for t in block_of(part, Var(0))}
    assert xblock == {
        "x", "p(x,x,y)", "p(x,y,y)", "p(x,y,x)",
        "q(x,x,y)", "q(x,y,y)", "q(x,y,x)",
    }


@pytest.mark.parametrize("m", [2, 3, 4])
def test_wnu_bridge(m):
    assert check_wnu_bridge(majority_a(m))


def test_algebra_json_export_shape():
    data = semilattice_b().to_json()
    assert data["size"] == 2
    assert data["ops"] == [{"name": "meet", "arity": 2, "table": [0, 0, 0, 1]}]
