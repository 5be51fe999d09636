"""linid: classification of linear identity systems on two at-most-ternary
idempotent terms against the two test algebras and all finite-ring module
reducts."""

from .terms import (
    App,
    Identity,
    ParseError,
    Symbol,
    System,
    TermUniverse,
    Var,
    canonicalize,
    format_system,
    parse_system,
    system,
    system_from_blocks,
    term_universe,
    weakenings,
)
from .algebra import (
    CloneCapExceeded,
    CloneSlice,
    FiniteAlgebra,
    OperationTable,
    SatVerdict,
    clone_slice,
    holds_in,
    induced_partition,
    majority_a,
    reduct_algebra,
    semilattice_b,
)
from .reducts import (
    AffineTerm,
    LinearSystem,
    RingVerdict,
    affine_terms,
    coefficient_system,
    parse_affine,
    solve_mod,
    solve_some_finite_ring,
    verify_witness,
)
from .classify import (
    CandidateReport,
    Classification,
    Family,
    VerifyReport,
    classify_system,
    enumerate_family,
    master_partitions,
    minimal_candidates,
    verify_paper,
)

__version__ = "0.1.0"
