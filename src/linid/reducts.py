"""Satisfiability of identity systems in full idempotent reducts of modules.

A full idempotent reduct of a module over Z_n has exactly the affine
operations a1*x1 + ... + ak*xk with a1 + ... + ak = 1 (mod n) as its k-ary
term operations.  Equality of two affine operations over every module reduces
to equality of per-variable coefficient sums (evaluate at the unit vectors of
a free module), so a system of linear identities turns into an integer linear
system over the symbols' coefficients.  Solvability over some finite ring is
decided through the Smith normal form of that system.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Sequence

from .terms import Symbol, System, Term, Var, VAR_NAMES


# ---------------------------------------------------------------------------
# Affine terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineTerm:
    """Idempotent affine operation over Z_n: coefficients summing to 1 mod n."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        coeffs = tuple(c % self.modulus for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if sum(coeffs) % self.modulus != 1:
            raise ValueError(f"coefficients {coeffs} do not sum to 1 mod {self.modulus}")

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    def evaluate(self, args: Sequence[int]) -> int:
        return sum(c * a for c, a in zip(self.coeffs, args)) % self.modulus

    def __str__(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, VAR_NAMES):
            if c == 0:
                continue
            parts.append(name if c == 1 else f"{c}{name}")
        return "+".join(parts) if parts else "0"


def parse_affine(text: str, modulus: int, arity: int = 3) -> AffineTerm:
    """Parse strings like "3x+3y", "x+2y+3z", "x" into an AffineTerm."""
    coeffs = [0] * arity
    for part in text.replace(" ", "").split("+"):
        if not part:
            raise ValueError(f"empty summand in {text!r}")
        name = part[-1]
        if name not in VAR_NAMES or VAR_NAMES.index(name) >= arity:
            raise ValueError(f"bad variable in affine term {text!r}")
        digits = part[:-1]
        coeff = int(digits) if digits else 1
        coeffs[VAR_NAMES.index(name)] += coeff
    return AffineTerm(modulus, tuple(coeffs))


@functools.lru_cache(maxsize=None)
def affine_coefficients(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-tuples over Z_n summing to 1, projections first then lexicographic.

    This is the canonical candidate order used everywhere a least witness is
    reported.  Exactly n**(k-1) tuples, computed once per (n, k).
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    projections = []
    for i in range(k):
        unit = [0] * k
        unit[i] = 1
        projections.append(tuple(unit))
    rest = []
    for head in itertools.product(range(n), repeat=k - 1):
        tail = (1 - sum(head)) % n
        coeffs = head + (tail,)
        if coeffs not in projections:
            rest.append(coeffs)
    rest.sort()
    return tuple(projections + rest)


def affine_terms(n: int, k: int) -> list[AffineTerm]:
    """All idempotent affine k-ary operations over Z_n, in canonical order."""
    return [AffineTerm(n, c) for c in affine_coefficients(n, k)]


# ---------------------------------------------------------------------------
# Coefficient systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Integer system A v = b over the symbols' affine coefficients.

    Unknown layout: the coefficients of each symbol in canonical symbol order
    (three per ternary symbol, two per binary), concatenated.  One row per
    identity per variable, then one affine row (coefficients sum to 1) per
    symbol.

    The Smith form of each column suffix (the columns of symbols k and
    later) is computed on first use and kept with the system: it depends
    only on the matrix, so every right-hand side tested against the suffix
    reuses it.
    """

    symbols: tuple[Symbol, ...]
    matrix: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def smith_form(self, k: int = 0) -> SmithForm:
        """Smith form of the columns of symbols k and later (k = 0: all)."""
        form = self._forms.get(k)
        if form is None:
            off = sum(s.arity for s in self.symbols[:k])
            form = self._forms[k] = smith_diagonalize([row[off:] for row in self.matrix])
        return form


def _side_contribution(
    t: Term, var: int, offsets: Mapping[Symbol, int], width: int
) -> tuple[list[int], int]:
    """Coefficient row and constant contributed by one identity side for var."""
    row = [0] * width
    const = 0
    if isinstance(t, Var):
        const = 1 if t.index == var else 0
        return row, const
    off = offsets[t.sym]
    for pos, v in enumerate(t.pattern):
        if v == var:
            row[off + pos] += 1
    return row, const


def coefficient_system(s: System) -> LinearSystem:
    """Extract the integer linear system equivalent to s over module reducts."""
    symbols = tuple(sorted(s.signature, key=lambda sy: sy.order))
    offsets = {}
    width = 0
    for sym in symbols:
        offsets[sym] = width
        width += sym.arity
    rows: list[tuple[int, ...]] = []
    rhs: list[int] = []
    for ident in s.sorted_identities():
        for var in range(s.num_vars):
            lrow, lconst = _side_contribution(ident.left, var, offsets, width)
            rrow, rconst = _side_contribution(ident.right, var, offsets, width)
            rows.append(tuple(l - r for l, r in zip(lrow, rrow)))
            rhs.append(rconst - lconst)
    for sym in symbols:
        row = [0] * width
        for j in range(sym.arity):
            row[offsets[sym] + j] = 1
        rows.append(tuple(row))
        rhs.append(1)
    return LinearSystem(symbols, tuple(rows), tuple(rhs))


# ---------------------------------------------------------------------------
# Smith normal form (with its row transform)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Diagonal of the Smith normal form of A and the unimodular row transform.

    U A V = D for a unimodular column transform V (not kept): diag holds D's
    nonnegative diagonal d_0 | d_1 | ..., and transform is U.  Column
    operations only reparametrise the unknowns, so A v = b is solvable mod n
    exactly when diag_i * w_i = (U b)_i is, rows past the diagonal counting
    as zero-diagonal rows.
    """

    diag: tuple[int, ...]
    transform: tuple[tuple[int, ...], ...]
    _tests: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, rhs: Sequence[int]) -> tuple[int, ...]:
        """The transformed right-hand side U b."""
        return tuple(sum(u * b for u, b in zip(row, rhs)) for row in self.transform)

    def solvable_mod(self, rhs: Sequence[int], n: int) -> bool:
        """Whether A v = rhs is solvable mod n: gcd(d_i, n) divides (U rhs)_i.

        Rows with gcd(d_i, n) = 1 pass for every rhs; the others are kept
        per modulus, with the nonzero entries of their rows of U.
        """
        tests = self._tests.get(n)
        if tests is None:
            tests = self._tests[n] = [
                (g, [(j, u) for j, u in enumerate(row) if u])
                for i, row in enumerate(self.transform)
                if (g := math.gcd(self.diag[i] if i < len(self.diag) else 0, n)) > 1
            ]
        return all(sum(u * rhs[j] for j, u in row) % g == 0 for g, row in tests)


def smith_diagonalize(matrix: Sequence[Sequence[int]]) -> SmithForm:
    """Diagonalise A via unimodular row and column operations.

    The row operations are recorded in U, starting from the identity, so the
    right-hand side of any system with this matrix transforms as U b.  The
    pivot choice depends on the matrix alone.  Exact integer arithmetic
    throughout; Python integers are unbounded.
    """
    m = [list(row) for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged linear system")
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, factor):
        m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a + factor * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, factor):
        for row in m:
            row[dst] += factor * row[src]

    rank_bound = min(nrows, ncols)
    for s in range(rank_bound):
        while True:
            # the first entry of least absolute value; nothing undercuts a unit
            pivot = None
            least = 0
            for i in range(s, nrows):
                row = m[i]
                for j in range(s, ncols):
                    if row[j] and (not least or abs(row[j]) < least):
                        pivot, least = (i, j), abs(row[j])
                        if least == 1:
                            break
                if least == 1:
                    break
            if pivot is None:
                break
            swap_rows(s, pivot[0])
            swap_cols(s, pivot[1])
            if m[s][s] < 0:
                m[s] = [-a for a in m[s]]
                u[s] = [-a for a in u[s]]
            clean = True
            for i in range(s + 1, nrows):
                if m[i][s] != 0:
                    add_row(i, s, -(m[i][s] // m[s][s]))
                    if m[i][s] != 0:
                        clean = False
            for j in range(s + 1, ncols):
                if m[s][j] != 0:
                    add_col(j, s, -(m[s][j] // m[s][s]))
                    if m[s][j] != 0:
                        clean = False
            if clean and m[s][s] == 1:
                break
            if clean:
                # enforce divisibility of the remaining block by the pivot
                offender = None
                for i in range(s + 1, nrows):
                    for j in range(s + 1, ncols):
                        if m[i][j] % m[s][s] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(s, offender, 1)
        if m[s][s] == 0:
            break
    diag = tuple(m[i][i] for i in range(rank_bound))
    return SmithForm(diag, tuple(tuple(row) for row in u))


def excluding_row(diag: Sequence[int], c: Sequence[int], n: int) -> Optional[int]:
    """The first row i of the diagonalised system d_i * w_i = c_i that has no
    solution mod n, that is c_i % gcd(d_i, n) != 0, rows past diag having
    d_i = 0; None when the system is solvable mod n.  Such a row is the
    integer Farkas certificate of unsolvability (Schrijver 1986, Cor. 4.1a).
    """
    for i, ci in enumerate(c):
        if ci and ci % math.gcd(diag[i] if i < len(diag) else 0, n):
            return i
    return None


def solve_mod(
    linsys: LinearSystem, n: int
) -> Optional[dict[Symbol, AffineTerm]]:
    """Least solution of the system mod n, or None.

    The order is the canonical affine-candidate order per symbol (projections
    first, then lexicographic), product-ordered over symbols.  Symbols are
    fixed one at a time: symbol k takes the first candidate with which the
    columns of the later symbols still solve the system.  The Smith form of
    that column suffix decides this exactly, so no choice is ever undone and
    the result is the least solution a backtracking search would find.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    if not linsys.smith_form().solvable_mod(linsys.rhs, n):
        return None
    rhs = linsys.rhs
    solution = {}
    off = 0
    for k, sym in enumerate(linsys.symbols):
        rest = linsys.smith_form(k + 1)
        cols = [row[off:off + sym.arity] for row in linsys.matrix]
        for cand in affine_coefficients(n, sym.arity):
            folded = [b - sum(map(operator.mul, col, cand)) for col, b in zip(cols, rhs)]
            if rest.solvable_mod(folded, n):
                break
        else:
            raise AssertionError("a solvable suffix must admit a candidate")
        solution[sym] = AffineTerm(n, cand)
        rhs = folded
        off += sym.arity
    return solution


# ---------------------------------------------------------------------------
# Decision over all finite rings
#
# A finite ring maps onto a simple quotient, a matrix ring over a finite
# field; an integer linear system is solvable over M_k(F_q) iff entrywise
# over F_q, and over F_q iff over its prime field F_p (rank does not change
# under field extension).  So "solvable in a reduct over some finite ring"
# reduces to "solvable mod some prime".
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primes() -> Iterator[int]:
    yield 2
    n = 3
    while True:
        if all(n % p for p in range(3, int(n**0.5) + 1, 2)):
            yield n
        n += 2


@dataclass(frozen=True)
class RingVerdict:
    """Outcome of the some-finite-ring decision, with its certificate.

    Satisfiable: least admissible prime and the least witness mod that prime.
    Unsatisfiable: the diagonalised system plus, per candidate prime (divisor
    of the gcd of blocked right-hand sides), a row excluding it.
    """

    satisfiable: bool
    prime: Optional[int]
    witness: Optional[tuple[tuple[Symbol, AffineTerm], ...]]
    snf_diag: tuple[int, ...]
    snf_rhs: tuple[int, ...]
    blocked_rows: tuple[int, ...]
    blocked_gcd: int
    exclusions: tuple[tuple[int, int], ...]

    def solvable_mod(self, n: int) -> bool:
        """Solvability mod n, read off the diagonalised system (exact)."""
        return excluding_row(self.snf_diag, self.snf_rhs, n) is None

    def to_json(self) -> dict:
        data: dict = {
            "status": "satisfiable" if self.satisfiable else "unsatisfiable-all-finite-rings",
            "snf": {"diag": list(self.snf_diag), "transformed_rhs": list(self.snf_rhs)},
        }
        if self.satisfiable:
            data["prime"] = self.prime
            data["witness"] = {
                sym.value: list(term.coeffs) for sym, term in (self.witness or ())
            }
        else:
            data["blocked_rows"] = list(self.blocked_rows)
            data["blocked_gcd"] = self.blocked_gcd
            data["excluded_primes"] = [
                {"prime": p, "row": r} for p, r in self.exclusions
            ]
        return data


def solve_some_finite_ring(linsys: LinearSystem) -> RingVerdict:
    """Decide whether any finite ring's reduct satisfies the system."""
    form = linsys.smith_form()
    diag, c = form.diag, form.apply(linsys.rhs)
    blocked = tuple(i for i, ci in enumerate(c) if ci and (i >= len(diag) or not diag[i]))
    g = 0
    for i in blocked:
        g = math.gcd(g, c[i])
    exclusions = []
    # blocked rows admit only primes dividing g; else only finitely many primes
    # (divisors of nonzero diagonal entries) can fail, so the scan terminates
    for p in sorted(_prime_factors(g)) if blocked else _primes():
        row = excluding_row(diag, c, p)
        if row is None:
            witness = solve_mod(linsys, p)
            assert witness is not None, "admissible prime must yield a witness"
            return RingVerdict(
                True, p, tuple(sorted(witness.items(), key=lambda kv: kv[0].order)),
                diag, c, blocked, g, (),
            )
        exclusions.append((p, row))
    return RingVerdict(False, None, None, diag, c, blocked, g, tuple(exclusions))


# ---------------------------------------------------------------------------
# Witness verification by direct substitution (independent of the
# coefficient-row route: evaluates both sides pointwise over Z_n tuples)
# ---------------------------------------------------------------------------


def _eval_term(t: Term, assignment: Sequence[int], witness: Mapping[Symbol, AffineTerm], n: int) -> int:
    if isinstance(t, Var):
        return assignment[t.index] % n
    return witness[t.sym].evaluate([assignment[v] for v in t.pattern])


def verify_witness(
    s: System, n: int, witness: Mapping[Symbol, AffineTerm]
) -> bool:
    """Check a claimed reduct witness by evaluating every identity pointwise."""
    for sym in s.signature:
        if sym not in witness:
            return False
        if witness[sym].modulus != n or witness[sym].arity != sym.arity:
            return False
    for assignment in itertools.product(range(n), repeat=s.num_vars):
        for ident in s.identities:
            if _eval_term(ident.left, assignment, witness, n) != _eval_term(
                ident.right, assignment, witness, n
            ):
                return False
    return True
