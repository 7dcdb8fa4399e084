"""Tests of the benchmark itself: inputs, tracing and the correctness gate.

Each test that imports the program restores ``sys.modules`` afterwards,
because the runner re-imports cckit from scratch on every set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

from bench import run, workloads
from bench.tracing import SPANS, Tracer


@pytest.fixture
def program(monkeypatch):
    monkeypatch.setenv("CCKIT_MAX_TERMS", "1000")
    monkeypatch.syspath_prepend(str(run.SRC))
    saved = {name: module for name, module in sys.modules.items()
             if name == "cckit" or name.startswith("cckit.")}
    yield run.Program()
    for name in [name for name in sys.modules
                 if name == "cckit" or name.startswith("cckit.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def small_dual_strata(monkeypatch):
    monkeypatch.setattr(workloads, "DUAL_PAIRS", 4)


def test_allocation_keeps_the_natural_shares():
    for shares in workloads.DUAL_NATURAL.values():
        counts = workloads.allocate(shares, workloads.DUAL_PAIRS)
        assert sum(counts.values()) == workloads.DUAL_PAIRS
        whole = sum(shares.values())
        for key, share in shares.items():
            assert abs(counts[key] - workloads.DUAL_PAIRS * share / whole) < 1


def test_op_times_are_scaled_by_the_kernel_around_them():
    ref = run.REFERENCE_S
    # the machine runs at half speed for the last three ops
    kernels = [ref] * 5 + [2 * ref] * 3
    scaled = run.speed_scaled([0.01] * 8, kernels)
    assert scaled[0] == pytest.approx(0.01)
    assert scaled[-1] == pytest.approx(0.005)
    assert 0 < run.reference_kernel() < 1


def test_same_seed_same_inputs(program, monkeypatch, tmp_path):
    small_dual_strata(monkeypatch)
    built = []
    for run_dir in ("a", "b", "c"):
        workdir = tmp_path / run_dir
        workdir.mkdir()
        seed = 7 if run_dir != "c" else 8
        dual = workloads.DualCertify(program, seed, workdir)
        texts = [open(path).read() for path in dual.paths]
        pairs = workloads.PairCalculus(program, seed, workdir)
        pair_texts = [
            [program.algebra.format_scalar(v, g.chart) for v in workloads.scalars(g)]
            for _, g1, g2 in pairs.inputs for g in (g1, g2)
        ]
        search = workloads.GeneratorSearch(program, seed, workdir)
        built.append((texts, dual.order, pair_texts, search.order))
    assert built[0] == built[1]
    for same, other in zip(built[0], built[2]):
        if same != other:
            break
    else:
        pytest.fail("a different seed gave the same inputs")


def snapshot():
    bound = {}
    for name, module in list(sys.modules.items()):
        if name == "cckit" or name.startswith("cckit."):
            bound.update({(name, key): value for key, value in vars(module).items()})
    poly = sys.modules["cckit.algebra.poly"].Poly
    scalar = sys.modules["cckit.algebra.scalar"].Scalar
    for cls in (poly, scalar):
        bound.update({(cls.__name__, key): value for key, value in vars(cls).items()})
    return bound


def test_span_tree_is_well_formed_and_wrappers_are_removed(program):
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert program.structures.dualize is not before[("cckit.structures", "dualize")]
    # a function imported by name elsewhere is wrapped there too
    assert program.cli.dualize is program.structures.dualize
    tracer.op = 0
    path = str(workloads.INPUTS_DIR / "acc3.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert program.cli.run(["verify", "-s", path, "--json"]) == 0
    tracer.op = -1
    tracer.uninstall()
    assert snapshot() == before

    spans = {span[0]: span for span in tracer.spans}
    assert spans and tracer.dropped == 0
    for span_id, name, start, end, parent, op in spans.values():
        assert name in SPANS and start <= end and op == 0
        if parent >= 0:
            _, _, parent_start, parent_end, _, _ = spans[parent]
            assert parent_start <= start and end <= parent_end
    metrics = tracer.layer_metrics(1)
    for name in SPANS:
        assert metrics[f"{name}.self_s"][0] >= -1e-9
        assert metrics[f"{name}.self_s"][0] <= metrics[f"{name}.s"][0] + 1e-9
    assert metrics["exterior.schouten_bracket.calls"][0] > 0
    assert metrics["structures.dualize.calls"][0] == 1
    assert metrics["scalar.new.calls"][0] > 0
    assert metrics["poly.exact_div.calls"][0] > 0
    assert 0 <= metrics["poly.exact_div.hit_ratio"][0] <= 1


def test_wrong_verdict_is_caught(program, tmp_path):
    dual = workloads.DualCertify(program, 1, tmp_path)
    singular = dual.paths.index(str(workloads.INPUTS_DIR / "singular3.json"))
    acc5b = dual.paths.index(str(workloads.INPUTS_DIR / "acc5b.json"))
    records = []
    run.run_ops(dual, program, [singular, acc5b], records)
    assert [status for _, _, status, _ in records] == ["ok", "failed"]
    dual.expected[singular] = 0  # inject a wrong expectation
    run.run_ops(dual, program, [singular], records)
    assert records[-1][2] == "wrong"


def test_wrong_verdict_fails_the_run(program, monkeypatch, capsys):
    small_dual_strata(monkeypatch)
    monkeypatch.setattr(workloads, "FIXED_EXIT", {"singular3": 0, "cosym3": 0})
    code = run.main([
        "--workload", "dual-certify", "--seed", "1", "--seconds", "0.3",
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= 1


def test_generator_count_mismatch_is_wrong(program, tmp_path):
    search = workloads.GeneratorSearch(program, 1, tmp_path)
    index = next(i for i, (name, target, d, _) in enumerate(search.inputs)
                 if name == "acc3" and target.value == "cov_pair" and d == 2)
    assert search.inputs[index][3] == 3  # the README's count
    basis = search.run_op(index)
    assert search.judge(index, basis) == "ok"
    # a basis that differs from the one already checked is checked again
    assert search.judge(index, basis[:-1]) == "wrong"


def test_checks_stay_out_of_traced_ops(program, tmp_path):
    search = workloads.GeneratorSearch(program, 1, tmp_path)
    index = next(i for i, (name, target, d, _) in enumerate(search.inputs)
                 if name == "cosym3" and target.value == "cov_pair" and d == 1)
    tracer = Tracer()
    tracer.install()
    tracer.reset_aggregates()
    records = []
    try:
        run.run_ops(search, program, [index, index], records, tracer)
    finally:
        tracer.uninstall()
    assert [status for _, _, status, _ in records] == ["ok", "ok"]
    metrics = tracer.layer_metrics(len(records))
    assert metrics["symmetries.find_generator_pairs.calls"][0] == 1
    # find_generator_pairs never calls it; only the benchmark's check does
    assert metrics["symmetries.check_generator_conditions.calls"][0] == 0
