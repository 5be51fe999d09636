"""Command-line front end: classification checks, clone listings, family
sweeps, and the reproducible verify-paper entry point.

Exit codes: 0 success/agreement, 1 verification mismatch (findings emitted),
2 usage or parse errors.  Output is byte-identical across runs for a fixed
configuration.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import algebra as alg
from . import classify, reducts
from .terms import (
    VAR_NAMES, App, ParseError, Symbol, canonicalize, format_system, parse_system,
)

OUTPUT_DIR_ENV = "LINID_OUTPUT_DIR"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# Upper bounds on the inputs that size work; tables grow as size**arity.
MAX_MODULUS_BOUND = 100_000
MAX_ALGEBRA_SIZE = 12
MAX_CLONE_CAP = 4096


@dataclass
class RunConfig:
    modulus_bound: int = 64
    algebra_sizes: tuple[int, ...] = (2, 3, 4)
    output_dir: Optional[Path] = None
    output_format: str = "json"
    manifest: Optional[Path] = None
    recheck: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.modulus_bound <= MAX_MODULUS_BOUND:
            raise ValueError(f"modulus bound must be between 2 and {MAX_MODULUS_BOUND}")
        for m in self.algebra_sizes:
            if not 2 <= m <= MAX_ALGEBRA_SIZE:
                raise ValueError(f"--sizes-a entries must be between 2 and {MAX_ALGEBRA_SIZE}")


def _certificate_name(canonical_dsl: str) -> str:
    return hashlib.sha256(canonical_dsl.encode("utf-8")).hexdigest()[:16] + ".json"


def _dump(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _write(cfg: RunConfig, name: str, text: str) -> Optional[Path]:
    if cfg.output_dir is None:
        return None
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.output_dir / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _classification_certificate(cls: classify.Classification, canon) -> dict:
    """The certificate keys shared by `check` and `minimal`: the
    classification's, its ring block merged in, and the canonical form."""
    cert = cls.to_json()
    cert.update(cert.pop("ring"))
    cert["canonical_system"] = format_system(canon)
    return cert


def check_certificate(s, cfg: RunConfig) -> dict:
    canon = canonicalize(s)
    cls = classify.classify_system(s)
    cert = _classification_certificate(cls, canon)
    ring = cls.ring_verdict
    if not ring.satisfiable:
        # the diagonalised system decides each modulus exactly
        cert["modulus_sweep"] = {
            "bound": cfg.modulus_bound,
            "all_unsatisfiable": not any(
                ring.solvable_mod(n) for n in range(2, cfg.modulus_bound + 1)
            ),
        }
    # classify_system already decided the 3-element majority algebra
    sizes = {}
    for m in cfg.algebra_sizes:
        if m == 3:
            sizes[str(m)] = cls.holds_in_a.satisfiable
        else:
            sizes[str(m)] = alg.holds_in(s, alg.majority_a(m)).satisfiable
    cert["holds_in_majority_sizes"] = sizes
    return cert


def recheck_certificate(cert: dict, s) -> bool:
    """Re-verify a persisted certificate of s from its own data.  Since
    parse_system(format_system(s)) == s, its text must be format_system(s)."""
    if cert["system"] != format_system(s):
        return False
    if cert["status"] == "satisfiable":
        n = cert["prime"]
        witness = {
            Symbol(name): reducts.AffineTerm(n, tuple(coeffs))
            for name, coeffs in cert["witness"].items()
        }
        if not reducts.verify_witness(s, n, witness):
            return False
    for key, algebra in (("holds_in_b", alg.semilattice_b()), ("holds_in_a", alg.majority_a(3))):
        verdict = cert[key]
        if verdict["satisfiable"]:
            witness = {}
            for name, op in verdict["witness"].items():
                sym = Symbol(name)
                witness[sym] = alg.OperationTable(
                    op["name"], algebra.size, sym.arity, tuple(op["table"])
                )
            assignments = list(itertools.product(range(algebra.size), repeat=s.num_vars))

            def values(t):
                op = witness[t.sym] if isinstance(t, App) else None
                return alg.eval_vector(t, assignments, op)

            if any(values(i.left) != values(i.right) for i in s.identities):
                return False
    return True


def _cmd_check(args, cfg: RunConfig) -> int:
    # DSL text wins over a file of the same name
    try:
        s = parse_system(args.system)
    except ParseError:
        if not os.path.exists(args.system):
            raise
        s = parse_system(Path(args.system).read_text(encoding="utf-8"))
    for warning in s.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    cert = check_certificate(s, cfg)
    text = _dump(cert)
    print(text)
    path = _write(cfg, _certificate_name(cert["canonical_system"]), text + "\n")
    if path is not None:
        print(f"certificate written to {path}", file=sys.stderr)
    if cfg.recheck:
        loaded = json.loads(path.read_text()) if path else cert
        if not recheck_certificate(loaded, s):
            print("error: certificate failed re-verification", file=sys.stderr)
            return EXIT_MISMATCH
        print("recheck: certificate re-verified", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# clone / reduct-terms
# ---------------------------------------------------------------------------


def _algebra_size(text: str) -> int:
    size = int(text)
    if size > MAX_ALGEBRA_SIZE:
        raise ValueError(f"algebra size {size} exceeds {MAX_ALGEBRA_SIZE}")
    return size


def _parse_algebra(spec: str) -> alg.FiniteAlgebra:
    if spec == "b":
        return alg.semilattice_b()
    if spec == "a":
        return alg.majority_a(3)
    if spec.startswith("a:"):
        return alg.majority_a(_algebra_size(spec[2:]))
    if spec.startswith("reduct:"):
        return alg.reduct_algebra(_algebra_size(spec[7:]))
    raise ValueError(f"unknown algebra {spec!r} (use b, a, a:<m> or reduct:<n>)")


def _cmd_clone(args, cfg: RunConfig) -> int:
    if args.cap > MAX_CLONE_CAP:
        raise ValueError(f"--cap must be at most {MAX_CLONE_CAP}")
    algebra = _parse_algebra(args.algebra)
    sl = alg.clone_slice(algebra, args.arity, cap=args.cap)
    data = {"algebra": algebra.to_json(), "slice": sl.to_json()}
    print(_dump(data))
    _write(cfg, f"clone_{args.algebra.replace(':', '_')}_{args.arity}.json", _dump(data) + "\n")
    return EXIT_OK


MAX_REDUCT_TERMS = 100_000


def _cmd_reduct_terms(args, cfg: RunConfig) -> int:
    # terms print in the variables x, y, z
    if not 1 <= args.arity <= len(VAR_NAMES):
        raise ValueError(f"--arity must be between 1 and {len(VAR_NAMES)}")
    if args.modulus < 2:
        raise ValueError("modulus must be at least 2")
    if args.modulus ** (args.arity - 1) > MAX_REDUCT_TERMS:
        raise ValueError(
            f"{args.modulus}**{args.arity - 1} terms requested; "
            f"at most {MAX_REDUCT_TERMS} are listed"
        )
    terms = reducts.affine_terms(args.modulus, args.arity)
    if cfg.output_format == "json":
        print(_dump({"modulus": args.modulus, "arity": args.arity,
                     "count": len(terms), "terms": [str(t) for t in terms]}))
    else:
        for t in terms:
            print(t)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate / minimal
# ---------------------------------------------------------------------------


def _cmd_enumerate(args, cfg: RunConfig) -> int:
    family = classify.Family.parse(args.family)
    systems = classify.enumerate_family(family)
    if cfg.output_format == "json":
        print(_dump({"family": family.value, "count": len(systems),
                     "systems": [format_system(s) for s in systems]}))
    else:
        for s in systems:
            print(format_system(s) or "(empty system)")
    return EXIT_OK


def render_candidate_report_markdown(report: classify.CandidateReport) -> str:
    lines = [f"## Family {report.family.value}", ""]
    lines.append(f"- systems enumerated (canonical): {report.total_enumerated}")
    lines.append(f"- satisfiable in some finite-ring reduct: {report.num_ring_satisfiable}")
    lines.append(f"- failing in the two-element semilattice: {report.num_fails_b}")
    lines.append(f"- failing in the majority algebra: {report.num_fails_a}")
    lines.append(f"- candidates: {len(report.candidates)}")
    lines.append("")
    if report.candidates:
        lines.append("### Candidates")
        lines.append("")
        for record in report.minimality:
            mark = "minimal" if record.is_minimal else "not minimal"
            lines.append(f"- `{format_system(record.candidate)}` ({mark})")
            if not record.is_minimal:
                for weaker in record.weaker_candidates:
                    lines.append(f"  - weaker candidate: `{format_system(weaker)}`")
        lines.append("")
        lines.append("### Minimal candidates")
        lines.append("")
        for s in report.minimal_candidates:
            lines.append(f"- `{format_system(s)}`")
        lines.append("")
    return "\n".join(lines)


def _cmd_minimal(args, cfg: RunConfig) -> int:
    family = classify.Family.parse(args.family)
    report = classify.minimal_candidates(family)
    text = _dump(report.to_json())
    markdown = render_candidate_report_markdown(report)
    if cfg.output_format in ("json", "both"):
        print(text)
    if cfg.output_format in ("markdown", "both"):
        print(markdown)
    _write(cfg, f"minimal_{family.value}.json", text + "\n")
    _write(cfg, f"minimal_{family.value}.md", markdown + "\n")
    if cfg.output_dir is not None:
        written = []
        for cls in report.candidates:
            cert = _classification_certificate(cls, cls.system)
            name = _certificate_name(cert["canonical_system"])
            written.append((_write(cfg, name, _dump(cert) + "\n"), cls.system))
        if cfg.recheck:
            for path, s in written:
                if not recheck_certificate(json.loads(path.read_text()), s):
                    print(f"error: {path} failed re-verification", file=sys.stderr)
                    return EXIT_MISMATCH
            print(f"recheck: {len(written)} certificates re-verified", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-paper
# ---------------------------------------------------------------------------


_FAMILY_SECTION_ORDER = (
    classify.Family.SINGLE_BINARY,
    classify.Family.TWO_BINARY,
    classify.Family.SINGLE_TERNARY,
    classify.Family.BINARY_PLUS_TERNARY,
    classify.Family.TWO_TERNARY,
)


def render_verify_report_markdown(report: classify.VerifyReport) -> str:
    lines = ["# Expected-results verification", ""]
    lines.append(f"- entries checked: {len(report.findings)}")
    lines.append(f"- failures: {report.num_failed}")
    lines.append("")

    def emit(title: str, findings) -> None:
        if not findings:
            return
        lines.append(f"## {title}")
        lines.append("")
        for f in findings:
            status = "ok" if f.ok else "MISMATCH"
            lines.append(f"- [{status}] line {f.entry.line_no}: {f.entry.describe()}")
            if not f.ok:
                lines.append(f"  - {f.detail}")
        lines.append("")

    emit(
        "Term inventories",
        [f for f in report.findings if f.entry.kind == "affine-table"],
    )
    for family in _FAMILY_SECTION_ORDER:
        emit(
            f"Systems on {family.value}",
            [f for f in report.findings if f.entry.family is family],
        )
    return "\n".join(lines)


def _cmd_verify_paper(args, cfg: RunConfig) -> int:
    manifest_text = None
    if cfg.manifest is not None:
        manifest_text = cfg.manifest.read_text(encoding="utf-8")
    try:
        report = classify.verify_paper(manifest_text)
    except classify.ManifestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = _dump(report.to_json())
    markdown = render_verify_report_markdown(report)
    if cfg.output_format in ("json", "both"):
        print(text)
    if cfg.output_format in ("markdown", "both"):
        print(markdown)
    _write(cfg, "verify_report.json", text + "\n")
    _write(cfg, "verify_report.md", markdown + "\n")
    if not report.ok:
        for f in report.findings:
            if not f.ok:
                print(
                    f"mismatch: line {f.entry.line_no}: {f.entry.describe()}: {f.detail}",
                    file=sys.stderr,
                )
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls:
    parsing returns a fresh namespace and leaves the parser unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", "-o", type=Path, default=None,
                        help=f"directory for reports and certificates (default ${OUTPUT_DIR_ENV})")
    common.add_argument("--format", choices=("json", "markdown", "both"), default="json")
    common.add_argument("--modulus-bound", type=int, default=64,
                        help="upper bound for the per-modulus unsatisfiability sweep")
    common.add_argument("--sizes-a", type=str, default="2,3,4",
                        help="majority-algebra sizes probed by check")
    common.add_argument("--recheck", action="store_true",
                        help="re-verify persisted certificates after writing them")

    parser = argparse.ArgumentParser(
        prog="linid",
        description="Classify systems of linear identities on at-most-ternary idempotent terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="classify one system (DSL text or file)")
    p.add_argument("system")

    p = sub.add_parser("clone", parents=[common],
                       help="print a clone slice of a built-in algebra")
    p.add_argument("algebra", help="b | a | a:<m> | reduct:<n>")
    p.add_argument("arity", type=int)
    p.add_argument("--cap", type=int, default=MAX_CLONE_CAP)

    p = sub.add_parser("reduct-terms", parents=[common],
                       help="idempotent affine operations over Z_n")
    p.add_argument("modulus", type=int)
    p.add_argument("--arity", type=int, default=3)

    p = sub.add_parser("enumerate", parents=[common],
                       help="canonical systems of a family")
    p.add_argument("family")

    p = sub.add_parser("minimal", parents=[common],
                       help="candidates and minimal candidates of a family")
    p.add_argument("family")

    p = sub.add_parser("verify-paper", parents=[common],
                       help="check the bundled expected-results manifest")
    p.add_argument("--manifest", type=Path, default=None)

    return parser


def _config_from_args(args) -> RunConfig:
    output_dir = args.output_dir
    if output_dir is None and os.environ.get(OUTPUT_DIR_ENV):
        output_dir = Path(os.environ[OUTPUT_DIR_ENV])
    sizes = tuple(int(x) for x in args.sizes_a.split(",") if x)
    return RunConfig(
        modulus_bound=args.modulus_bound,
        algebra_sizes=sizes,
        output_dir=output_dir,
        output_format=args.format,
        manifest=getattr(args, "manifest", None),
        recheck=args.recheck,
    )


_COMMANDS = {
    "check": _cmd_check,
    "clone": _cmd_clone,
    "reduct-terms": _cmd_reduct_terms,
    "enumerate": _cmd_enumerate,
    "minimal": _cmd_minimal,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, cfg)
    except (ParseError, classify.ManifestError, alg.CloneCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        # an unreadable input or unwritable output path
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
