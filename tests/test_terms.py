import itertools
import random

from conftest import block_of, orbit_images, random_system, refines
from reference import (
    bell_number, canonicalize_every_element, first_largest_mark, substitute_variable,
    system_key,
)

import pytest

from linid.classify import Family
from linid.terms import (
    App,
    Identity,
    ParseError,
    Symbol,
    Var,
    _term_image,
    app,
    block_mark,
    canonical_blocks,
    canonicalize,
    format_system,
    parse_system,
    rename_term,
    set_partitions,
    symmetry_tables,
    system,
    system_from_blocks,
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
    mirrored = {rename_term(t, (1, 0, 2)) for t in u.terms}
    assert mirrored == set(u.terms)


def test_universe_sizes_other_signatures():
    assert len(term_universe(frozenset((Symbol.T,)), 2)) == 4
    assert len(term_universe(frozenset((Symbol.P,)), 2)) == 8
    assert len(term_universe(frozenset((Symbol.P, Symbol.T)), 2)) == 10
    assert len(term_universe(frozenset((Symbol.T, Symbol.S)), 2)) == 6
    assert len(term_universe(PQ, 3)) == 51


def test_partition_closure_examples():
    # a system's closure blocks, each in term order; other terms are singletons
    u = term_universe(PQ, 2)
    empty = parse_system("")
    assert empty.blocks == ()
    assert all(block_of(empty, t) == (t,) for t in u.terms)

    s4 = parse_system(S4)
    assert [tuple(str(t) for t in block) for block in s4.blocks] == [
        ("p(x,x,y)", "p(x,y,y)"),
        ("p(x,y,x)", "q(x,x,y)", "q(x,y,x)", "q(y,x,x)"),
    ]

    xblock = block_of(parse_system(MASTER2), Var(0))
    assert {str(t) for t in xblock} == {
        "x", "p(x,x,y)", "p(x,y,y)", "p(x,y,x)",
        "q(x,x,y)", "q(x,y,x)", "q(y,x,x)",
    }


def test_closure_ignores_identity_regrouping():
    a = parse_system("p(x,x,y)=p(x,y,y)=p(x,y,x)")
    b = parse_system("p(x,x,y)=p(x,y,x); p(x,y,y)=p(x,y,x)")
    assert a == b
    assert a.blocks == b.blocks


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
    orders = {
        (PQ, 2): 144,
        (PQ, 3): 432,
        (frozenset((Symbol.P,)), 2): 12,
        (frozenset((Symbol.T,)), 2): 4,
        (frozenset((Symbol.T, Symbol.S)), 2): 16,
        (frozenset((Symbol.P, Symbol.T)), 2): 24,
    }
    for (sig, nv), order in orders.items():
        assert len(symmetry_tables(sig, nv).perms) == order


def test_symmetry_group_laws():
    # each group's index permutations form a group, with the identity first;
    # closure is what makes orbit marking lossless
    cases = [(family.signature, 2) for family in Family] + [(PQ, 3)]
    for sig, nv in cases:
        perms = symmetry_tables(sig, nv).perms
        indices = tuple(range(len(perms[0])))
        assert perms[0] == indices
        assert all(tuple(sorted(perm)) == indices for perm in perms)
        # as bytes, g.translate(f's table) is the composite f after g
        elements = {bytes(perm) for perm in perms}
        assert len(elements) == len(perms)
        for f in perms:
            table = bytes(f).ljust(256, b"\0")
            assert all(g.translate(table) in elements for g in elements)


def test_apply_symmetry_group_action_on_systems():
    # mapping a system's closure by h and then by g is mapping it by g after h
    tables = symmetry_tables(PQ, 2)
    u, perms = tables.universe, tables.perms
    closure = parse_system(S4)

    def act(perm, s):
        moved = [[u.terms[perm[u.index(t)]] for t in b] for b in s.blocks]
        return system_from_blocks(moved, 2, PQ)

    rng = random.Random(11)
    for _ in range(60):
        g, h = rng.choice(perms), rng.choice(perms)
        gh = tuple(g[i] for i in h)
        assert gh in perms
        assert act(g, act(h, closure)) == act(gh, closure)
    assert act(perms[0], closure) == closure


def test_argument_permutation_fixes_system_4():
    # permuting the arguments of q cyclically rewrites the chain but generates
    # the same equivalence, so the system is a fixed point of the action
    tables = symmetry_tables(PQ, 2)
    u = tables.universe
    closure = parse_system(S4)
    for cycle in ((2, 0, 1), (1, 2, 0)):
        perm = tuple(
            u.index(app(t.sym, [t.pattern[j] for j in cycle]))
            if isinstance(t, App) and t.sym is Symbol.Q else i
            for i, t in enumerate(u.terms)
        )
        assert perm in tables.perms
        moved = [[u.terms[perm[u.index(t)]] for t in b] for b in closure.blocks]
        assert system_from_blocks(moved, 2, PQ) == closure


def test_canonicalize_constant_on_orbits():
    # exhaustive: generate the whole 144-element orbit of each sample
    rng = random.Random(2024)
    for _ in range(100):
        s = random_system(rng)
        canon = canonicalize(s, PQ)
        orbit = set(orbit_images(s, PQ))
        assert canon in orbit
        for member in orbit:
            assert canonicalize(member, PQ) == canon


def test_canonicalize_is_first_orbit_minimum():
    # reference: map s by every group element, keep the first least image
    rng = random.Random(9)
    P, PT = frozenset((Symbol.P,)), frozenset((Symbol.P, Symbol.T))
    cases = [(PQ, PQ, 2)] * 20 + [(PQ, PQ, 3)] * 6 + [(PT, PT, 2)] * 8 + [(PT, P, 2)] * 4
    for sig, ambient, nv in cases:
        s = random_system(rng, sig, nv)
        if not sig <= ambient:
            with pytest.raises(ValueError, match="^ambient signature lacks t$"):
                canonicalize(s, ambient)
            continue
        best = min(orbit_images(s, ambient), key=system_key)
        canons = [canonicalize(s, ambient)] + ([canonicalize(s)] if ambient == sig else [])
        for canon in canons:
            assert canon == best
            assert (canon.signature, canon.num_vars) == (best.signature, best.num_vars)


def test_canonicalize_keeps_num_vars_and_maps_signature():
    # the signature is the image of the system's own; an ambient signature
    # lacking one of its symbols is refused
    three_vars = system(parse_system("q(x,y,y)=x").identities, num_vars=3, signature=PQ)
    cases = [
        (parse_system("x=q(x,y,x)"), PQ, "x=p(x,x,y)", "p", 2),
        (parse_system("x=s(x,y)"), None, "x=s(x,y)", "s", 2),
        (three_vars, PQ, "x=p(x,y,y)", "pq", 3),
        (three_vars, None, "x=p(x,y,y)", "pq", 3),
    ]
    for s, ambient, text, letters, nv in cases:
        canon = canonicalize(s, ambient)
        assert format_system(canon) == text
        assert canon.signature == {Symbol(c) for c in letters}
        assert canon.num_vars == nv
    with pytest.raises(ValueError, match="^ambient signature lacks t$"):
        canonicalize(parse_system("q(x,x,y)=t(y,x)"), PQ)
    with pytest.raises(ValueError, match="^ambient signature lacks q$"):
        canonicalize(three_vars, {Symbol.P})


def _random_raw_blocks(rng, size):
    """Disjoint index blocks of two or more indices below size, maybe none."""
    chosen = rng.sample(range(size), rng.randint(0, size))
    blocks = {}
    for i in chosen:
        blocks.setdefault(rng.randrange(max(1, len(chosen) // 2)), []).append(i)
    return [b for b in blocks.values() if len(b) > 1]


def _list_key_canonical_blocks(blocks, perms):
    """Reference kernel: rank every image by its chain-pair key as a list."""
    best_key, best_k = None, 0
    for k, perm in enumerate(perms):
        key = []
        for b in blocks:
            moved = sorted([perm[i] for i in b])
            key.extend(zip(moved, moved[1:]))
        key.sort()
        if best_key is None or key < best_key:
            best_key, best_k = key, k
    perm = perms[best_k]
    moved_blocks = tuple(sorted(tuple(sorted(perm[i] for i in b)) for b in blocks))
    return tuple(best_key or ()), best_k, moved_blocks


def _kernel_universes():
    four = frozenset(Symbol)
    return [(f.signature, 2) for f in Family] + [(PQ, 3), (four, 3)]


@pytest.mark.parametrize(
    "sig, nv", _kernel_universes(),
    ids=lambda v: "".join(sorted(x.value for x in v)) if isinstance(v, frozenset) else str(v),
)
def test_canonical_blocks_matches_list_key_reference(sig, nv):
    # the integer ranking picks the same key, element and moved blocks as
    # ranking chain-pair lists, with no blocks, one block or several
    rng = random.Random(f"kernel {sorted(x.value for x in sig)} {nv}")
    tables = symmetry_tables(sig, nv)
    size = len(tables.universe)
    draws = [[]] + [_random_raw_blocks(rng, size) for _ in range(40 if nv == 2 else 12)]
    rows = {}
    for raw in draws:
        expected = _list_key_canonical_blocks(raw, tables.perms)
        assert canonical_blocks(raw, tables) == expected
        assert canonical_blocks(raw, tables, rows=rows) == expected


def test_block_mark_reverses_chain_pair_order():
    # for equal pair counts a larger mark is a smaller chain-pair key, and a
    # mark names its blocks
    rng = random.Random("mark order")
    for size in (4, 7, 14, 27):
        by_pairs = {}
        for _ in range(300):
            raw = _random_raw_blocks(rng, size)
            key = sorted(p for b in raw for p in zip(sorted(b), sorted(b)[1:]))
            named = frozenset(frozenset(b) for b in raw)
            by_pairs.setdefault(len(key), []).append((key, block_mark(raw, size), named))
        for draws in by_pairs.values():
            for key1, mark1, named1 in draws:
                for key2, mark2, named2 in draws:
                    assert (key1 < key2) == (mark1 > mark2)
                    assert (mark1 == mark2) == (named1 == named2)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_canonical_blocks_marks_every_image_once(family):
    # reference: map the raw blocks through each permutation, then mark
    rng = random.Random(f"marks {family.value}")
    tables = symmetry_tables(family.signature, 2)
    perms, size = tables.perms, len(tables.universe)
    seen = {}
    for _ in range(60):
        raw = _random_raw_blocks(rng, size)
        marks = set()
        assert canonical_blocks(raw, tables, marks) == canonical_blocks(raw, tables)
        assert marks == {
            block_mark([[perm[i] for i in b] for b in raw], size) for perm in perms
        }
        # a mark names its blocks
        named = frozenset(frozenset(b) for b in raw)
        assert seen.setdefault(block_mark(raw, size), named) == named


@pytest.mark.parametrize(
    "sig, nv", _kernel_universes(),
    ids=lambda v: "".join(sorted(x.value for x in v)) if isinstance(v, frozenset) else str(v),
)
def test_canonical_blocks_with_singleton_blocks_matches_references(sig, nv):
    # a block of one index has no successor, so it neither heads an image
    # nor moves the ranking; the kernel reads the same element with or
    # without its singletons
    rng = random.Random(f"singletons {sorted(x.value for x in sig)} {nv}")
    tables = symmetry_tables(sig, nv)
    size = len(tables.universe)
    for _ in range(40 if nv == 2 else 12):
        raw = _random_raw_blocks(rng, size)
        used = {i for b in raw for i in b}
        free = [i for i in range(size) if i not in used]
        singles = [[i] for i in rng.sample(free, rng.randint(1, min(3, len(free))))] if free else []
        # variables are the least indices: put one alone where it could
        # reach below every head
        if 0 in free and [0] not in singles:
            singles.append([0])
        mixed = singles + raw
        rng.shuffle(mixed)
        expected = _list_key_canonical_blocks(mixed, tables.perms)
        got = canonical_blocks(mixed, tables)
        assert got == expected
        assert got[1] == first_largest_mark(mixed, tables)
        assert got[1] == canonical_blocks(raw, tables)[1]


_SIGNATURES = [frozenset(c) for r in range(1, 5) for c in itertools.combinations(Symbol, r)]


def test_canonicalize_matches_rank_every_element_reference():
    # ranking only the elements that reach the least head gives the same
    # canonical system, signature and variable count as ranking every
    # element; the ambient signature is unset, equal or wider, and one that
    # does not cover the system's is refused; 15 signatures x 140 systems
    rng = random.Random("canonicalize reference")
    for sig in _SIGNATURES:
        outside = [x for x in Symbol if x not in sig]
        for nv, count in ((2, 100), (3, 40)):
            for n in range(count):
                s = random_system(rng, sig, nv)
                drop = rng.choice(sorted(sig, key=lambda x: x.order))
                not_covering = frozenset(rng.sample(list(Symbol), rng.randint(0, 4))) - {drop}
                ambients = [None, sig, not_covering]
                if outside:
                    ambients.append(sig | frozenset(rng.sample(outside, rng.randint(1, len(outside)))))
                ambient = ambients[n % len(ambients)]
                if ambient is not_covering:
                    with pytest.raises(ValueError, match="^ambient signature lacks "):
                        canonicalize(s, ambient)
                    continue
                got = canonicalize(s, ambient)
                want = canonicalize_every_element(s, ambient)
                assert got == want, (format_system(s), ambient)
                assert format_system(got) == format_system(want)
                assert (got.signature, got.num_vars) == (want.signature, want.num_vars)


def _reference_tables(signature, num_vars):
    """Each element's index permutation and symbol map, term by term."""
    universe = term_universe(signature, num_vars)

    def arg_perms(sym):
        ident = tuple(range(sym.arity))
        return list(itertools.permutations(ident)) if sym in signature else [ident]

    def swaps(a, b):
        return [{}, {a: b, b: a}] if {a, b} <= signature else [{}]

    perms, symbol_maps = [], []
    for var_perm, *args, pq, ts in itertools.product(
        itertools.permutations(range(num_vars)),
        *map(arg_perms, Symbol),
        swaps(Symbol.P, Symbol.Q),
        swaps(Symbol.T, Symbol.S),
    ):
        arg_map = dict(zip(Symbol, args))
        symbol_map = {sym: pq.get(sym, ts.get(sym, sym)) for sym in Symbol}
        perms.append(tuple(
            universe.index(_term_image(t, var_perm, arg_map, symbol_map))
            for t in universe.terms
        ))
        symbol_maps.append(symbol_map)
    return universe, tuple(perms), symbol_maps


def test_symmetry_tables_compose_to_term_images():
    # every signature, the empty one included, and variable count: the
    # composed factor tables equal mapping each term by each element
    for r in range(len(Symbol) + 1):
        for sig in map(frozenset, itertools.combinations(Symbol, r)):
            for nv in (2, 3):
                tables = symmetry_tables(sig, nv)
                universe, perms, symbol_maps = _reference_tables(sig, nv)
                assert tables.universe == universe
                assert tables.perms == perms
                assert list(tables.symbol_maps) == symbol_maps
                assert tables.columns == tuple(zip(*perms))


def test_canonicalize_idempotent():
    for text in (S4, S5, S7, ""):
        c = canonicalize(parse_system(text), PQ)
        assert canonicalize(c, PQ) == c


def test_canonicalize_identifies_argument_permuted_variants():
    # permuting the arguments of q yields an equivalent system
    subset1 = parse_system("p(x,x,y)=p(x,y,y); p(x,y,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)")
    assert canonicalize(parse_system(S4)) == canonicalize(subset1)
    # swapping the roles of p and q too
    swapped = parse_system("q(x,x,y)=q(x,y,y); q(x,y,x)=p(x,x,y)=p(x,y,x)=p(y,x,x)")
    assert canonicalize(parse_system(S4)) == canonicalize(swapped)


def test_set_partitions_counts():
    assert bell_number(7) == 877
    assert sum(1 for _ in set_partitions(range(7))) == 877
    assert sum(1 for _ in set_partitions(())) == 1
    assert [p for p in set_partitions((1, 2))] == [((1, 2),), ((1,), (2,))]


def test_weakenings_counts_and_strictness():
    assert list(weakenings(parse_system(""))) == []

    pair = parse_system("x=y")
    ws = list(weakenings(pair))
    assert len(ws) == 1
    assert ws[0].blocks == ()

    master = system_from_blocks([term_universe(PQ, 2).terms[:7]], 2, PQ)
    refinements = list(weakenings(master))
    assert len(refinements) == 876
    assert len(set(refinements)) == 876
    assert all(refines(w, master) and w != master for w in refinements)
    assert all((w.num_vars, w.signature) == (2, PQ) for w in refinements)


def test_system_from_blocks_round_trip():
    systems = [parse_system(text) for text in (S4, S5, S7, MASTER2, "")]
    rng = random.Random("blocks")
    systems += [random_system(rng, num_vars=n) for n in (2, 3) for _ in range(50)]
    for s in systems:
        t = system_from_blocks(s.blocks, s.num_vars, s.signature)
        assert (t, t.blocks, t.num_vars, t.signature) == (s, s.blocks, s.num_vars, s.signature)
    # a block of one term adds nothing
    blocks = [(Var(0), app(Symbol.P, (0, 0, 1))), (Var(1),)]
    assert format_system(system_from_blocks(blocks, 3, PQ)) == "x=p(x,x,y)"


def test_system_from_blocks_rejects_overlapping_blocks():
    # overlapping blocks would need merging, which only system() does
    x, y = Var(0), Var(1)
    p = app(Symbol.P, (0, 0, 1))
    for blocks in ([(x, p), (p, y)], [(x, y), (y,)], [(x, x)]):
        with pytest.raises(ValueError, match="^closure blocks must be disjoint$"):
            system_from_blocks(blocks, 2, PQ)
