import random

from conftest import random_system

import pytest

from linid.classify import Family
from linid.terms import (
    App,
    Identity,
    ParseError,
    Symbol,
    SymmetryElement,
    Var,
    app,
    apply_symmetry,
    bell_number,
    block_mark,
    canonical_blocks,
    canonicalize,
    format_system,
    mirror,
    parse_system,
    partition_closure,
    partition_from_blocks,
    set_partitions,
    substitute_variable,
    symmetry_group,
    symmetry_tables,
    system_from_partition,
    system_key,
    term_key,
    term_universe,
    weakenings,
)

S4 = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
S5 = "x=q(x,y,x); p(x,y,y)=p(x,y,x); p(x,x,y)=q(x,x,y)=q(y,x,x)"
S7 = "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)"
MASTER2 = "x=p(x,x,y)=p(x,y,y)=p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"

PQ = frozenset((Symbol.P, Symbol.Q))


def test_idempotent_collapse_at_construction():
    assert app(Symbol.P, (0, 0, 0)) == Var(0)
    assert app(Symbol.T, (1, 1)) == Var(1)
    assert app(Symbol.P, (0, 0, 1)) == App(Symbol.P, (0, 0, 1))


def test_app_rejects_bad_arity_and_vars():
    with pytest.raises(ValueError):
        app(Symbol.P, (0, 1))
    with pytest.raises(ValueError):
        app(Symbol.T, (0, 3))


def test_identity_is_unordered():
    a = app(Symbol.P, (0, 0, 1))
    b = app(Symbol.Q, (0, 1, 0))
    assert Identity(a, b) == Identity(b, a)
    assert hash(Identity(a, b)) == hash(Identity(b, a))
    with pytest.raises(ValueError):
        Identity(a, a)


def test_parse_system_4():
    s = parse_system(S4)
    assert len(s.identities) == 4
    assert s.num_vars == 2
    assert s.signature == PQ


def test_parse_system_5_chains_expand_to_consecutive_pairs():
    s = parse_system(S5)
    # one identity per consecutive pair: 1 + 1 + 2
    assert len(s.identities) == 4


def test_parse_collapses_and_warns_on_trivial():
    s = parse_system("p(x,x,x)=x")
    assert len(s.identities) == 0
    assert s.warnings
    assert s.signature == frozenset((Symbol.P,))


def test_parse_accepts_approx_sign_and_whitespace():
    assert parse_system("p(x, x, y) ≈ p(x,y,y)") == parse_system("p(x,x,y)=p(x,y,y)")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_system("p(x,x,y)=f(x,y,z)")
    assert exc.value.line == 1
    assert exc.value.column == 10
    with pytest.raises(ParseError):
        parse_system("p(x,y)=x")  # arity mismatch
    with pytest.raises(ParseError):
        parse_system("p(x,x,y)")  # missing '='


def test_parse_empty_text_is_empty_system():
    assert len(parse_system("").identities) == 0
    assert len(parse_system("  \n ").identities) == 0


def test_format_empty_system():
    assert format_system(parse_system("x=x")) == ""


def test_format_system_7_normalized():
    s = parse_system(S7)
    assert format_system(s) == (
        "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
    )


@pytest.mark.parametrize("text", [S4, S5, S7, MASTER2, "", "t(x,y)=x", "p(x,y,z)=p(x,z,y)"])
def test_parse_format_round_trip(text):
    s = parse_system(text)
    assert parse_system(format_system(s)) == s
    # format of parse is idempotent on normalised text
    assert format_system(parse_system(format_system(s))) == format_system(s)


def test_system_normalises_chain_shape():
    # star-shaped and chain-shaped inputs with equal closure compare equal
    star = parse_system("p(x,x,y)=p(x,y,y); p(x,x,y)=p(x,y,x)")
    chain = parse_system("p(x,x,y)=p(x,y,y)=p(x,y,x)")
    assert star == chain


def test_universe_14_terms_sorted_and_mirror_closed():
    u = term_universe(PQ, 2)
    assert len(u) == 14
    keys = [term_key(t) for t in u.terms]
    assert keys == sorted(keys)
    swap = SymmetryElement(var_perm=(1, 0, 2))
    mirrored = {swap.apply_term(t) for t in u.terms}
    assert mirrored == set(u.terms)


def test_universe_sizes_other_signatures():
    assert len(term_universe(frozenset((Symbol.T,)), 2)) == 4
    assert len(term_universe(frozenset((Symbol.P,)), 2)) == 8
    assert len(term_universe(frozenset((Symbol.P, Symbol.T)), 2)) == 10
    assert len(term_universe(frozenset((Symbol.T, Symbol.S)), 2)) == 6
    assert len(term_universe(PQ, 3)) == 51


def test_partition_closure_examples():
    u = term_universe(PQ, 2)
    empty = partition_closure(parse_system(""), u)
    assert empty.singletons_only()
    assert len(empty.blocks) == 14

    s4 = partition_closure(parse_system(S4), u)
    nontrivial = [
        tuple(str(t) for t in block)
        for block in s4.term_blocks()
        if len(block) > 1
    ]
    assert nontrivial == [
        ("p(x,x,y)", "p(x,y,y)"),
        ("p(x,y,x)", "q(x,x,y)", "q(x,y,x)", "q(y,x,x)"),
    ]

    m2 = partition_closure(parse_system(MASTER2), u)
    xblock = m2.block_of(Var(0))
    assert {str(t) for t in xblock} == {
        "x", "p(x,x,y)", "p(x,y,y)", "p(x,y,x)",
        "q(x,x,y)", "q(x,y,x)", "q(y,x,x)",
    }


def test_partition_closure_rejects_foreign_terms():
    u = term_universe(frozenset((Symbol.P,)), 2)
    with pytest.raises(ValueError):
        partition_closure(parse_system("p(x,x,y)=q(x,x,y)"), u)


def test_closure_ignores_identity_regrouping():
    u = term_universe(PQ, 2)
    a = parse_system("p(x,x,y)=p(x,y,y)=p(x,y,x)")
    b = parse_system("p(x,x,y)=p(x,y,x); p(x,y,y)=p(x,y,x)")
    assert partition_closure(a, u) == partition_closure(b, u)


def test_substitute_variable_examples():
    s = parse_system("p(x,y,z)=p(x,z,y)")
    zx = substitute_variable(s, 2, 0)
    assert zx == parse_system("p(x,y,x)=p(x,x,y)")
    zy = substitute_variable(s, 2, 1)
    assert len(zy.identities) == 0
    collapsed = substitute_variable(parse_system("x=q(x,y,x)"), 1, 0)
    assert len(collapsed.identities) == 0


def test_substitute_requires_declared_variable():
    with pytest.raises(ValueError):
        substitute_variable(parse_system("t(x,y)=x"), 2, 0)


def test_symmetry_group_sizes():
    assert len(symmetry_group(PQ, 2)) == 144
    assert len(symmetry_group(PQ, 3)) == 432
    assert len(symmetry_group(frozenset((Symbol.T,)), 2)) == 4
    assert len(symmetry_group(frozenset((Symbol.T, Symbol.S)), 2)) == 16
    assert len(symmetry_group(frozenset((Symbol.P, Symbol.T)), 2)) == 24


def test_symmetry_group_laws():
    grp = symmetry_group(PQ, 2)
    u = term_universe(PQ, 2)
    rng = random.Random(7)
    for _ in range(200):
        g, h = rng.choice(grp), rng.choice(grp)
        t = rng.choice(u.terms)
        assert g.compose(h).apply_term(t) == g.apply_term(h.apply_term(t))
        assert g.inverse().apply_term(g.apply_term(t)) == t
        assert SymmetryElement().apply_term(t) == t


def test_apply_symmetry_group_action_on_systems():
    grp = symmetry_group(PQ, 2)
    s = parse_system(S4)
    rng = random.Random(11)
    for _ in range(60):
        g, h = rng.choice(grp), rng.choice(grp)
        assert apply_symmetry(apply_symmetry(s, h), g) == apply_symmetry(s, g.compose(h))
    assert apply_symmetry(s, SymmetryElement()) == s


def test_argument_permutation_fixes_system_4():
    # permuting the arguments of q cyclically rewrites the chain but generates
    # the same equivalence, so the system is a fixed point of the action
    s = parse_system(S4)
    g = SymmetryElement(q_arg_perm=(2, 0, 1))
    assert apply_symmetry(s, g) == s
    h = SymmetryElement(q_arg_perm=(1, 2, 0))
    assert apply_symmetry(s, h) == s


def test_mirror_is_involution_and_mirrors_closure():
    u = term_universe(PQ, 2)
    s = parse_system(S4)
    assert mirror(mirror(s)) == s
    swap = SymmetryElement(var_perm=(1, 0, 2))
    left = partition_closure(s, u)
    right = partition_closure(mirror(s), u)
    mapped = {
        frozenset(u.index(swap.apply_term(t)) for t in block)
        for block in left.term_blocks()
    }
    assert mapped == {frozenset(b) for b in right.blocks}




def test_canonicalize_constant_on_orbits():
    # exhaustive: generate the whole 144-element orbit of each sample
    rng = random.Random(2024)
    grp = symmetry_group(PQ, 2)
    for _ in range(100):
        s = random_system(rng)
        canon, witness_g = canonicalize(s, PQ)
        assert apply_symmetry(s, witness_g) == canon
        orbit = {apply_symmetry(s, g) for g in grp}
        assert canon in orbit
        for member in orbit:
            assert canonicalize(member, PQ)[0] == canon


def test_canonicalize_is_first_orbit_minimum():
    # reference: apply every group element, keep the first least image
    rng = random.Random(9)
    P, PT = frozenset((Symbol.P,)), frozenset((Symbol.P, Symbol.T))
    cases = [(PQ, PQ, 2)] * 20 + [(PQ, PQ, 3)] * 6 + [(PT, PT, 2)] * 8 + [(PT, P, 2)] * 4
    for sig, ambient, nv in cases:
        s = random_system(rng, sig, nv)
        grp = symmetry_group(ambient, nv)
        images = [apply_symmetry(s, g) for g in grp]
        best = min(images, key=system_key)
        first = next(g for g, im in zip(grp, images) if system_key(im) == system_key(best))
        assert canonicalize(s, ambient) == (best, first)
        if ambient == sig:
            assert canonicalize(s) == (best, first)


def _random_raw_blocks(rng, size):
    """Disjoint index blocks of two or more indices below size."""
    chosen = rng.sample(range(size), rng.randint(0, size))
    blocks = {}
    for i in chosen:
        blocks.setdefault(rng.randrange(max(1, len(chosen) // 2)), []).append(i)
    return [b for b in blocks.values() if len(b) > 1]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_canonical_blocks_marks_every_image_once(family):
    # reference: map the raw blocks through each permutation, then mark
    rng = random.Random(f"marks {family.value}")
    tables = symmetry_tables(family.signature, 2, frozenset())
    perms, size = tables.perms, len(tables.universe)
    seen = {}
    for _ in range(60):
        raw = _random_raw_blocks(rng, size)
        marks = set()
        assert canonical_blocks(raw, perms, marks) == canonical_blocks(raw, perms)
        assert marks == {
            block_mark([[perm[i] for i in b] for b in raw], size) for perm in perms
        }
        # a mark names its blocks
        named = frozenset(frozenset(b) for b in raw)
        assert seen.setdefault(block_mark(raw, size), named) == named


def test_canonicalize_idempotent():
    for text in (S4, S5, S7, ""):
        c, _ = canonicalize(parse_system(text), PQ)
        assert canonicalize(c, PQ)[0] == c


def test_canonicalize_identifies_argument_permuted_variants():
    # permuting the arguments of q yields an equivalent system
    subset1 = parse_system("p(x,x,y)=p(x,y,y); p(x,y,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)")
    assert canonicalize(parse_system(S4))[0] == canonicalize(subset1)[0]
    # swapping the roles of p and q too
    swapped = parse_system("q(x,x,y)=q(x,y,y); q(x,y,x)=p(x,x,y)=p(x,y,x)=p(y,x,x)")
    assert canonicalize(parse_system(S4))[0] == canonicalize(swapped)[0]


def test_set_partitions_counts():
    assert bell_number(7) == 877
    assert sum(1 for _ in set_partitions(range(7))) == 877
    assert sum(1 for _ in set_partitions(())) == 1
    assert [p for p in set_partitions((1, 2))] == [((1, 2),), ((1,), (2,))]


def test_weakenings_counts_and_strictness():
    u = term_universe(PQ, 2)
    singles = partition_from_blocks(u, [])
    assert list(weakenings(singles)) == []

    pair = partition_from_blocks(u, [(0, 1)])
    ws = list(weakenings(pair))
    assert len(ws) == 1
    assert ws[0].singletons_only()

    master = partition_from_blocks(u, [tuple(range(7))])
    refinements = list(weakenings(master))
    assert len(refinements) == 876
    assert all(p.refines(master) and p != master for p in refinements)


def test_system_from_partition_round_trip():
    u = term_universe(PQ, 2)
    s = parse_system(S4)
    assert system_from_partition(partition_closure(s, u)) == s
