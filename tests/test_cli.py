import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linid
from linid import algebra, cli, reducts, terms
from linid.cli import (
    MAX_ALGEBRA_SIZE, MAX_CLONE_CAP, MAX_MODULUS_BOUND, build_parser, main,
)
from linid.terms import parse_system

S4 = "p(x,x,y)=p(x,y,y); p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)"
S5 = "x=q(x,y,x); p(x,y,y)=p(x,y,x); p(x,x,y)=q(x,x,y)=q(y,x,x)"

# sha256 of the standard output of these commands; any change to the report
# bytes fails here
GOLDEN_SHA256 = {
    ("verify-paper", "--format", "both"):
        "3c129dc434fadd08222c4d0c7044c5c161cabff13ae4f9c4a40eaf58ea9bdc3c",
    ("minimal", "TwoTernary", "--format", "both"):
        "55b8cd4c81b5342f0e81009a2264c58361430a7a1c35063b9ac027917fec3fef",
    ("minimal", "SingleTernary", "--format", "both"):
        "89ba13849da32a54ad902156529c0132fe7cf779b07ea40938cba1d2b18048d4",
    ("minimal", "BinaryPlusTernary", "--format", "both"):
        "6cedc400e352958e2a05e3aa4f2eefe205f0434dffae209cc1269c56e8ba6208",
    ("minimal", "SingleBinary", "--format", "both"):
        "755465a0f6552d7561eca81d3df6045d755f3a97e46841c51baa8cb8415ee823",
    ("minimal", "TwoBinary", "--format", "both"):
        "d17c6903e665f0b57d8ddee81ccf40fd741d5291db740c4d65e979c99db30aef",
    ("enumerate", "TwoTernary"):
        "fa67dae313185ecd1ed136648729267cf266201138a82cb0ec06e833e5740a4e",
    ("enumerate", "SingleTernary"):
        "22f6c32ac4840c9f7fbf61b3552e1eeb17da3d7cabbe5fa76f92963cc917b19f",
    ("enumerate", "BinaryPlusTernary"):
        "08593c74052e7ed83808aa8054e382df48bf4e15c0878ad4fb01ec583496d108",
    ("enumerate", "SingleBinary"):
        "1f3da14bafae9a8f5c0303363b5022dbdc060c0087d044c2b643bdfc8887f549",
    ("enumerate", "TwoBinary"):
        "916649dd8c327fef06fa6379d3cdfae6465fe613334413d1c2a791d9cf2d4188",
}

# the certificate file name and the sha256 of the standard output of `check
# S -o D --recheck`; the certificate written to D holds the same bytes
CHECK_SHA256 = {
    S4: ("6e56ab0c08f110e3.json",
         "46beead7f3b4f82fef8b3dfa6f6b433cee4d66818c214089b1abe3d54dcd5b6e"),
    S5: ("d6a2779ac7eb054b.json",
         "a40c56fb6a3901721447c87b9e806562abb873386cafda480731bf11e7b7cbb5"),
    "x=p(x,x,y); p(x,y,x)=p(y,x,x)=q(y,x,x)=q(x,y,x)=q(x,x,y)":
        ("9c9a1ad73cfac595.json",
         "e6810fcce0b0c16e6b8a8f49b2a33056df005c88c242cc7ada17545eb0e0e492"),
    "p(x,y,z)=q(z,y,x); p(x,x,y)=q(y,z,z)":
        ("38685afaaaf84842.json",
         "1b02f81371532b67b9d522c6205659cbfc640f44ab7b2a8ac75b2e26a905805e"),
    "p(x,y,z)=q(x,z,y); t(x,y)=s(y,z)":
        ("a13822e04d4b62bb.json",
         "d30bd11b3fb71ab9a38e877bada53a155791ebf7e04d632fe9fbd2d285fc9677"),
    "x=t(x,y)":
        ("d88edc0687fceaba.json",
         "a5a95e348e58b3b4d457e8eb14fbc756ae5d23404ee0091782b34c7800834278"),
    "x=p(x,x,y)":
        ("8021d7462271c530.json",
         "c393091626aeee145627c7a9391b65975ed442545205fdafbdf5c2b282b30b50"),
    # three variables, ring-satisfiable
    "p(x,y,z)=p(x,z,y)":
        ("95fda9df01c4bd76.json",
         "73019536ea92feeb8150686656b125f68fc8610e1502dea87b9c00b9f7418aef"),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_candidate(capsys):
    code, out, _ = run(capsys, "check", S4, "--modulus-bound", "16")
    assert code == 0
    data = json.loads(out)
    assert data["is_candidate"] is True
    assert data["status"] == "unsatisfiable-all-finite-rings"
    assert data["snf"]["diag"]
    assert data["modulus_sweep"] == {"bound": 16, "all_unsatisfiable": True}
    assert data["holds_in_majority_sizes"] == {"2": True, "3": True, "4": True}


def test_check_sweep_reuses_the_ring_decision(capsys, monkeypatch):
    # ring-unsatisfiable with three variables: the 63-modulus sweep is read
    # off the ring verdict's diagonalised system
    monkeypatch.delenv("LINID_OUTPUT_DIR", raising=False)
    calls = []
    kernel = reducts.smith_diagonalize

    def counting(matrix):
        calls.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(reducts, "smith_diagonalize", counting)
    code, out, err = run(capsys, "check", "p(x,x,z)=p(x,z,x)=p(x,z,z)=q(y,y,z)=q(z,y,z)", "--recheck")
    assert code == 0, err
    data = json.loads(out)
    assert data["status"] == "unsatisfiable-all-finite-rings"
    assert data["modulus_sweep"] == {"bound": 64, "all_unsatisfiable": True}
    assert len(calls) <= 3


def test_check_reads_from_file(tmp_path, capsys):
    path = tmp_path / "system.txt"
    path.write_text("x=x")
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["system"] == ""
    assert data["is_candidate"] is False
    assert "dropped trivial identity" in err


def test_check_reads_dsl_before_a_file_of_the_same_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x=y").write_text("")
    code, out, _ = run(capsys, "check", "x=y")
    assert code == 0
    assert json.loads(out)["canonical_system"] == "x=y"
    # text that is not DSL and names no file still fails to parse
    code, out, err = run(capsys, "check", "system.txt")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_check_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "check", "p(x,x,y)=")
    assert code == 2
    assert "error:" in err


def test_usage_error_exit_2(capsys):
    assert main(["clone", "unknown-algebra", "3"]) == 2
    assert main(["no-such-command"]) == 2


def test_clone_output(capsys):
    code, out, _ = run(capsys, "clone", "b", "2")
    assert code == 0
    data = json.loads(out)
    assert data["algebra"]["size"] == 2
    assert data["slice"]["count"] == 3
    names = [op["name"] for op in data["slice"]["ops"]]
    assert names[:2] == ["pi1", "pi2"]


def test_reduct_terms_json_and_markdown(capsys):
    code, out, _ = run(capsys, "reduct-terms", "5")
    data = json.loads(out)
    assert data["count"] == 25
    assert "2x+2y+2z" in data["terms"]
    code, out, _ = run(capsys, "reduct-terms", "2", "--format", "markdown")
    assert out.splitlines() == ["x", "y", "z", "x+y+z"]


def test_reduct_terms_rejects_unbounded_requests(capsys, monkeypatch):
    def never(n, k):
        raise AssertionError(f"affine_terms({n}, {k}) started")

    monkeypatch.setattr(reducts, "affine_terms", never)
    for argv in (
        ("100000",),
        ("5", "--arity", "1000000000"),
        ("5", "--arity", "0"),
        ("1",),
    ):
        code, out, err = run(capsys, "reduct-terms", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_reduct_terms_rejects_arity_above_three(capsys, monkeypatch):
    # terms print in x, y, z only, so a fourth coefficient would be dropped
    code, out, _ = run(capsys, "reduct-terms", "2", "--arity", "3", "--format", "markdown")
    assert code == 0 and out.splitlines() == ["x", "y", "z", "x+y+z"]

    def never(n, k):
        raise AssertionError(f"affine_terms({n}, {k}) started")

    monkeypatch.setattr(reducts, "affine_terms", never)
    for arity in ("4", "7"):
        code, out, err = run(capsys, "reduct-terms", "2", "--arity", arity, "--format", "markdown")
        assert code == 2, arity
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_enumerate_single_binary(capsys):
    code, out, _ = run(capsys, "enumerate", "SingleBinary")
    data = json.loads(out)
    assert data["count"] == 2
    assert "x=t(x,y)" in data["systems"]


def test_minimal_single_ternary(capsys):
    code, out, _ = run(capsys, "minimal", "SingleTernary")
    assert code == 0
    data = json.loads(out)
    assert data["counts"]["candidates"] == 0
    assert data["minimal_candidates"] == []


def test_certificates_written_and_recheck(tmp_path, capsys):
    code, out, err = run(
        capsys, "check", S4, "-o", str(tmp_path), "--recheck", "--modulus-bound", "8"
    )
    assert code == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    loaded = json.loads(files[0].read_text())
    assert loaded == json.loads(out)
    assert "re-verified" in err


def test_check_recheck_parses_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_system(text)

    monkeypatch.setattr(cli, "parse_system", counting)
    code, _, err = run(capsys, "check", S4, "-o", str(tmp_path), "--recheck")
    assert code == 0 and "re-verified" in err
    assert calls == [S4]


def test_recheck_rejects_an_altered_certificate(tmp_path, capsys, monkeypatch):
    # a certificate naming another system, or carrying a B witness table that
    # breaks an identity, fails the recheck and the command exits 1
    s = parse_system(S4)
    cert = cli.check_certificate(s, cli.RunConfig())
    assert cli.recheck_certificate(cert, s)
    other_system = {**cert, "system": cli.format_system(parse_system(S5))}
    other_table = json.loads(json.dumps(cert))
    table = other_table["holds_in_b"]["witness"]["p"]["table"]
    table[3] = 1 - table[3]  # p(x,y,y) at x=0, y=1 no longer equals p(x,x,y)
    for k, altered in enumerate((other_system, other_table)):
        assert not cli.recheck_certificate(altered, s)
        monkeypatch.setattr(cli, "check_certificate", lambda _s, _cfg, a=altered: a)
        out_dir = tmp_path / str(k)
        code, out, err = run(capsys, "check", S4, "-o", str(out_dir), "--recheck")
        assert code == 1
        assert json.loads(out) == altered
        assert err.endswith("error: certificate failed re-verification\n")


def test_output_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LINID_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "check", "x=t(x,y)")
    assert code == 0
    assert list(tmp_path.glob("*.json"))


def test_verify_paper_with_good_and_bad_manifests(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(
        "holds-mod | TwoTernary | p(x,x,y)=q(x,x,y) | 2 | p=x | q=x\n"
        "ring-unsat | TwoTernary | " + S4 + "\n"
    )
    code, out, _ = run(capsys, "verify-paper", "--manifest", str(good))
    assert code == 0
    assert json.loads(out)["ok"] is True

    bad = tmp_path / "bad.txt"
    bad.write_text("ring-unsat | TwoTernary | p(x,x,y)=q(x,x,y)\n")
    code, out, err = run(capsys, "verify-paper", "--manifest", str(bad))
    assert code == 1
    assert json.loads(out)["ok"] is False
    assert "mismatch" in err

    broken = tmp_path / "broken.txt"
    broken.write_text("wat | nope\n")
    code, _, err = run(capsys, "verify-paper", "--manifest", str(broken))
    assert code == 2


def test_minimal_entry_outside_its_family_exit_2(tmp_path, capsys):
    # the weakening sweep of a `minimal` entry runs on the family universe
    manifest = tmp_path / "foreign.txt"
    manifest.write_text("minimal | SingleTernary | " + S4 + "\n")
    code, out, err = run(capsys, "verify-paper", "--manifest", str(manifest))
    assert (code, out, err) == (
        2, "", f"error: line 1: system {S4!r} outside the SingleTernary universe\n"
    )


# a system outside its family's universe, one line per entry kind; the
# minimal-candidates line exited 1 and the holds-mod line 0 before the
# universe was checked, and the minimal line failed only after its work
@pytest.mark.parametrize("line", [
    "holds-mod | SingleBinary | x=p(x,y,y) | 5 | p=x",
    "projections | SingleTernary | x=q(x,y,y) | q=x",
    "projections-exist | TwoBinary | x=t(x,z)",
    "fails-in-b | SingleTernary | x=t(x,y)",
    "ring-unsat | BinaryPlusTernary | x=q(x,x,y)",
    "minimal | TwoTernary | p(x,x,y)=p(x,y,y); p(x,x,z)=p(x,z,x); "
    "p(x,y,x)=q(x,x,y)=q(x,y,x)=q(y,x,x)",
    "minimal-candidates | SingleTernary | x=t(x,y)",
], ids=lambda line: line.split(" ")[0])
def test_manifest_system_outside_its_family_exit_2(line, tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "foreign.txt"
    manifest.write_text("# header\n" + line + "\n")
    monkeypatch.setattr(cli.classify, "enumerate_family", never)
    monkeypatch.setattr(reducts, "solve_mod", never)
    monkeypatch.setattr(reducts, "solve_some_finite_ring", never)
    _kind, family, text = line.split(" | ")[:3]
    assert run(capsys, "verify-paper", "--manifest", str(manifest)) == (
        2, "", f"error: line 2: system {text!r} outside the {family} universe\n"
    )


# a witness naming a symbol its system does not use; the first line verified
# with exit 0 before witness symbols were checked against the system
@pytest.mark.parametrize("line, sym, text", [
    ("holds-mod | SingleTernary | x=p(x,y,y) | 5 | p=x | t=x+5y", "t", "x=p(x,y,y)"),
    ("projections | TwoTernary | p(x,x,y)=x | p=x | q=y", "q", "x=p(x,x,y)"),
], ids=lambda v: v.split(" ")[0])
def test_manifest_witness_symbol_outside_its_system_exit_2(
    line, sym, text, tmp_path, capsys, monkeypatch
):
    manifest = tmp_path / "foreign.txt"
    manifest.write_text("# header\n" + line + "\n")
    monkeypatch.setattr(cli.classify, "enumerate_family", never)
    monkeypatch.setattr(reducts, "solve_mod", never)
    monkeypatch.setattr(reducts, "verify_witness", never)
    assert run(capsys, "verify-paper", "--manifest", str(manifest)) == (
        2, "", f"error: line 2: witness symbol {sym} not in system {text!r}\n"
    )


def test_minimal_writes_reports_and_candidate_certificates(tmp_path, capsys):
    code, _, _ = run(capsys, "minimal", "SingleTernary", "-o", str(tmp_path))
    assert code == 0
    assert (tmp_path / "minimal_SingleTernary.json").exists()
    assert (tmp_path / "minimal_SingleTernary.md").exists()
    # no candidates in this family, so no per-system certificates
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_minimal_recheck_verifies_candidate_certificates(tmp_path, capsys):
    code, _, err = run(
        capsys, "minimal", "TwoTernary", "-o", str(tmp_path), "--recheck"
    )
    assert code == 0
    assert "certificates re-verified" in err
    certs = [p for p in tmp_path.glob("*.json") if not p.name.startswith("minimal_")]
    assert len(certs) == 5  # all candidates of the family, minimal or not
    loaded = json.loads(certs[0].read_text())
    assert loaded["status"] == "unsatisfiable-all-finite-rings"


def test_clone_reduct_algebra(capsys):
    code, out, _ = run(capsys, "clone", "reduct:5", "3")
    assert code == 0
    data = json.loads(out)
    assert data["slice"]["count"] == 25
    names = [op["name"] for op in data["slice"]["ops"]]
    assert names[:3] == ["pi1", "pi2", "pi3"]
    assert "2x+2y+2z" in names


def test_check_three_variable_system(capsys):
    code, out, _ = run(capsys, "check", "p(x,y,z)=p(x,z,y)", "--modulus-bound", "4")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "satisfiable"
    assert data["is_candidate"] is False


def test_markdown_report_format(capsys):
    code, out, _ = run(capsys, "minimal", "SingleBinary", "--format", "markdown")
    assert code == 0
    assert "## Family SingleBinary" in out
    assert "- candidates: 0" in out


def test_byte_identical_reruns(capsys):
    _, first, _ = run(capsys, "minimal", "BinaryPlusTernary")
    _, second, _ = run(capsys, "minimal", "BinaryPlusTernary")
    assert first == second


def test_clone_cap_exceeded_exit_2(capsys):
    code, out, err = run(capsys, "clone", "a:3", "3", "--cap", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: clone slice exceeds cap 5")
    assert len(err.splitlines()) == 1


def test_parser_built_once_and_left_unchanged_by_a_parse(capsys, monkeypatch):
    monkeypatch.delenv("LINID_OUTPUT_DIR", raising=False)
    build_parser.cache_clear()
    first = run(capsys, "check", S4)
    build_parser.cache_clear()
    assert run(capsys, "clone", "a:3", "3", "--cap", "5")[0] == 2
    assert run(capsys, "check", S4, "--modulus-bound", "8")[0] == 0
    assert run(capsys, "check", S4) == first
    assert build_parser.cache_info().misses == 1


def test_missing_manifest_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "verify-paper", "--manifest", str(missing))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err
    assert len(err.splitlines()) == 1


def test_check_directory_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    assert len(err.splitlines()) == 1


def refused(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2, argv
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def never(*args, **kwargs):
    raise AssertionError("work started")


def test_modulus_bound_above_its_bound_exit_2(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "x=t(x,y)", "--modulus-bound", str(MAX_MODULUS_BOUND))
    assert code == 0 and json.loads(out)["status"] == "satisfiable"
    monkeypatch.setattr(cli, "parse_system", never)
    refused(capsys, "check", S4, "--modulus-bound", str(MAX_MODULUS_BOUND + 1))


def test_sizes_a_entry_above_its_bound_exit_2(capsys, monkeypatch):
    code, out, _ = run(capsys, "check", "x=p(x,y,y)", "--sizes-a", str(MAX_ALGEBRA_SIZE))
    assert code == 0 and list(json.loads(out)["holds_in_majority_sizes"]) == [str(MAX_ALGEBRA_SIZE)]
    monkeypatch.setattr(cli, "parse_system", never)
    refused(capsys, "check", S4, "--sizes-a", f"2,{MAX_ALGEBRA_SIZE + 1}")


def test_clone_cap_above_its_bound_exit_2(capsys, monkeypatch):
    assert run(capsys, "clone", "b", "2", "--cap", str(MAX_CLONE_CAP))[0] == 0
    monkeypatch.setattr(algebra, "clone_slice", never)
    refused(capsys, "clone", "b", "2", "--cap", str(MAX_CLONE_CAP + 1))


def test_clone_majority_size_above_its_bound_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "majority_a", never)
    refused(capsys, "clone", f"a:{MAX_ALGEBRA_SIZE + 1}", "3")


def test_clone_reduct_modulus_above_its_bound_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "reduct_algebra", never)
    refused(capsys, "clone", f"reduct:{MAX_ALGEBRA_SIZE + 1}", "3")


def test_output_independent_of_hash_seed():
    # no set or dict order of terms or symbols may reach the output
    env = {**os.environ, "PYTHONPATH": str(Path(linid.__file__).parent.parent)}
    env.pop("LINID_OUTPUT_DIR", None)
    # verify-paper covers TwoTernary enumeration, the weakening sweeps and
    # the sets and dicts of systems
    for argv in (["minimal", "SingleTernary"], ["verify-paper"]):
        outputs = []
        for seed in ("0", "1"):
            env["PYTHONHASHSEED"] = seed
            done = subprocess.run(
                [sys.executable, "-m", "linid.cli", *argv],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] and outputs[0] == outputs[1], argv


@pytest.mark.parametrize("argv", list(GOLDEN_SHA256), ids=" ".join)
def test_report_bytes_match_pinned_hashes(argv, capsys, monkeypatch):
    monkeypatch.delenv("LINID_OUTPUT_DIR", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[argv]


@pytest.mark.parametrize("text", list(CHECK_SHA256))
def test_check_bytes_match_pinned_hashes(text, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LINID_OUTPUT_DIR", raising=False)
    code, out, err = run(capsys, "check", text, "-o", str(tmp_path), "--recheck")
    name, digest = CHECK_SHA256[text]
    cert = tmp_path / name
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (code, err) == (0, f"certificate written to {cert}\nrecheck: certificate re-verified\n")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("text", [S4, "p(x,x,z)=p(x,z,x)=p(x,z,z)=q(y,y,z)=q(z,y,z)"])
def test_check_recheck_computes_each_closure_at_most_twice(text, tmp_path, capsys, monkeypatch):
    # the union-find runs once, to parse the system; its canonical form is
    # built from moved closure blocks, and the certificate and the recheck
    # read the closures kept on the systems
    monkeypatch.delenv("LINID_OUTPUT_DIR", raising=False)
    calls = []
    kernel = terms._merge_terms

    def counting(identities):
        calls.append(identities)
        return kernel(identities)

    monkeypatch.setattr(terms, "_merge_terms", counting)
    code, _, err = run(capsys, "check", text, "-o", str(tmp_path), "--recheck")
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("line", [
    "affine-table | 99999999 | x",
    "holds-mod | TwoTernary | p(x,x,y)=p(x,y,x) | 99999989 | p=x | q=x",
])
def test_manifest_modulus_above_its_bound_exit_2(line, tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "moduli.txt"
    manifest.write_text(line + "\n")
    for name in ("affine_terms", "verify_witness", "solve_mod"):
        monkeypatch.setattr(reducts, name, never)
    refused(capsys, "verify-paper", "--manifest", str(manifest))
    code, out, err = run(capsys, "verify-paper", "--manifest", str(manifest))
    assert err.startswith("error: line 1: modulus ") and err.endswith(" outside 2..64\n")


def test_manifest_line_without_a_field_exit_2(tmp_path, capsys):
    manifest = tmp_path / "short.txt"
    manifest.write_text("holds-mod | TwoTernary\n")
    code, out, err = run(capsys, "verify-paper", "--manifest", str(manifest))
    assert (code, out, err) == (2, "", "error: line 1: holds-mod entry lacks its system field\n")
