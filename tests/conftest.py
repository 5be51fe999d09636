import random

from linid.terms import Identity, Symbol, system, term_universe

PQ = frozenset((Symbol.P, Symbol.Q))


def random_system(rng: random.Random, signature=PQ, num_vars=2):
    """Random chains over a random subset of the term universe."""
    u = term_universe(signature, num_vars)
    k = rng.randint(2, 7)
    chosen = rng.sample(list(u.terms), k)
    nblocks = rng.randint(1, max(1, k // 2))
    blocks = {}
    for t in chosen:
        blocks.setdefault(rng.randrange(nblocks), []).append(t)
    idents = []
    for group in blocks.values():
        idents.extend(Identity(a, b) for a, b in zip(group, group[1:]))
    return system(idents, num_vars=num_vars, signature=signature)
