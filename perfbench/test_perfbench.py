"""Tests of the benchmark itself: the oracles, the seeded inputs, the
tracer's bindings and the result line.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles as o  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def oracle():
    return workloads.OracleCache()


def test_clones_have_the_known_sizes(oracle):
    assert {k: len(v) for k, v in oracle.b.tables.items()} == {2: 3, 3: 7}
    for m in (2, 3, 4):
        assert len(oracle.a[m].tables[2]) == 2
    assert len(oracle.a[3].tables[3]) == 6


def test_published_systems_are_minimal_candidates(oracle):
    for text in workloads.PUBLISHED:
        assert workloads.minimality_errors(oracle, text) == []


def test_affine_search_finds_a_witness_the_pointwise_check_accepts():
    system = o.parse("p(x,x,y)=p(x,y,x); p(x,y,y)=q(x,y,x); q(x,x,y)=q(y,x,x)")
    coeffs = o.affine_solution(system, 5)
    assert coeffs is not None and o.affine_witness_holds(system, coeffs, 5)
    assert not o.affine_witness_holds(system, {"p": (1, 0, 0), "q": (1, 0, 0)}, 5)


def test_x_equals_y_has_no_solution_anywhere(oracle):
    assert oracle.moduli("x=y; p(x,y,y)=x") == []
    assert not oracle.holds("x=y; p(x,y,y)=x", oracle.b)


def test_stream_fills_every_quota_and_pairs_each_system_with_a_copy(oracle):
    stream = workloads.generate_stream(7, oracle)
    per_class = {}
    for _text, _origin, cls in stream:
        per_class[cls] = per_class.get(cls, 0) + 1
    assert per_class == {f"{s}{n}-{c}": 2 * k for s, n, c, k in workloads.STREAM_QUOTAS}
    origins = {}
    for text, origin, _cls in stream:
        origins.setdefault(origin, []).append(text)
    assert all(len(texts) == 2 and origin in texts for origin, texts in origins.items())


def test_stream_depends_on_the_seed_alone(oracle):
    code = ("import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
            "print(json.dumps(workloads.generate_stream(3, workloads.OracleCache())))")
    outputs = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
                              env=env, capture_output=True, text=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert workloads.generate_stream(3, workloads.OracleCache()) != workloads.generate_stream(
        4, workloads.OracleCache())


@pytest.mark.parametrize("name", list(tracing.EXPECTED_ON))
def test_each_layer_records_calls_on_its_workload(name, oracle, tmp_path):
    from linid import cli, classify, terms

    workload = workloads.WORKLOADS[name](1, tmp_path, oracle)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(hasattr(m.canonicalize, "__wrapped__") for m in (terms, classify, cli))
        outputs = [workload.run(op) for op in workload.ops]
    finally:
        tracer.uninstall()
    assert cli.canonicalize is terms.canonicalize
    assert all(workload.check(op, out) == [] for op, out in zip(workload.ops, outputs))
    calls = {layer: n for layer, (n, _s) in tracer.self_times().items()}
    for layer in tracing.EXPECTED_ON[name]:
        assert calls[layer] > 0, layer
    if name == "check-stream":
        # bound with `from .terms import ...`, so reached only through cli's own names
        assert tracer.binding_calls["linid.cli.canonicalize"] > 0
        assert tracer.binding_calls["linid.cli.parse_system"] > 0
    if name == "paper":
        assert tracer.binding_calls["linid.classify.canonicalize"] > 0
    if name == "ledger":
        assert calls["terms.canonicalize"] == 0 and calls["classify.enumerate_family"] == 0


def test_sampler_leaves_out_its_own_time_and_scales_by_nearby_samples():
    sampler = speed.Sampler()
    sampler.at, sampler.took, sampler.spent = [1.0, 2.0, 3.0], [0.002, 0.004, 0.008], [0.0, 0.0021, 0.0062, 0.0143]
    assert sampler.spent_in(0.5, 2.5) == pytest.approx(0.0062)
    assert sampler.spent_in(1.5, 2.5) == pytest.approx(0.0041)
    assert sampler.scale(1.9, 2.1) == pytest.approx(speed.NOMINAL_S / 0.004)
    assert sampler.scale(1.9, 2.8) == pytest.approx(speed.NOMINAL_S / 0.006)
    assert sampler.scale(5.0, 6.0) == pytest.approx(speed.NOMINAL_S * 3 / 0.014)


def test_sampler_samples_and_the_clock_keeps_fine_steps():
    steps = set()
    with speed.Sampler() as sampler:
        start = last = time.thread_time()
        while last - start < 0.35:
            now = time.thread_time()
            if now != last:
                steps.add(now - last)
            last = now
    assert len(sampler.took) >= 2
    assert min(steps) < 1e-4


def _result(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_metric_of_its_kind(trace, key):
    done = _result(["--workload", "ledger", "--seed", "1", "--seconds", "1", "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in SPEC[key]} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _result(["--workload", "ledger", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
