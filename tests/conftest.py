import random

from linid.terms import Identity, Symbol, symmetry_tables, system, term_universe

PQ = frozenset((Symbol.P, Symbol.Q))


def random_system(rng: random.Random, signature=PQ, num_vars=2):
    """Random chains over a random subset of the term universe."""
    u = term_universe(signature, num_vars)
    k = rng.randint(2, min(7, len(u)))
    chosen = rng.sample(list(u.terms), k)
    nblocks = rng.randint(1, max(1, k // 2))
    blocks = {}
    for t in chosen:
        blocks.setdefault(rng.randrange(nblocks), []).append(t)
    idents = []
    for group in blocks.values():
        idents.extend(Identity(a, b) for a, b in zip(group, group[1:]))
    return system(idents, num_vars=num_vars, signature=signature)


def orbit_images(s, signature=None, elements=None):
    """The images of s under the symmetry group of signature (by default
    s's own), one per group element in table order, or only those at the
    positions in elements."""
    sig = frozenset(signature) if signature is not None else s.signature
    tables = symmetry_tables(sig, s.num_vars)
    u = tables.universe
    blocks = [[u.index(t) for t in block] for block in s.blocks]
    if elements is None:
        elements = range(len(tables.perms))
    for k in elements:
        perm, symbol_map = tables.perms[k], tables.symbol_maps[k]
        idents = []
        for b in blocks:
            moved = [u.terms[perm[i]] for i in b]
            idents.extend(Identity(x, y) for x, y in zip(moved, moved[1:]))
        yield system(idents, num_vars=s.num_vars,
                     signature=[symbol_map[sym] for sym in s.signature])


def refines(s, t):
    """Whether every closure block of s lies inside a closure block of t."""
    owner = {term: k for k, block in enumerate(t.blocks) for term in block}
    # a term in no block of t is a singleton there, its own owner
    return all(len({owner.get(term, term) for term in block}) == 1 for block in s.blocks)


def block_of(s, term):
    """The closure block of s containing term (a singleton if none does)."""
    return next((block for block in s.blocks if term in block), (term,))
