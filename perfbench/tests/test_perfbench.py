"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import os
import time

import numpy as np
import pytest

import run
import tracer as tracer_mod
import workloads
import monosep.model
from monosep.config import preset
from monosep.model import build_model
from tracer import Tracer, namespace_snapshot, self_times

COUNTS = ("autodiff.ops", "autodiff.tape_nodes", "attention.local_chunks")


def assert_same_bindings(before, after):
    assert before.keys() == after.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["c", 8.0, 9.5, 0, 0],  # overlaps b: the union is counted once
        ["other", 11.0, 12.0, -1, 1],
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5, 1.0])


def test_kernel_cost_from_shapes():
    a, b = np.zeros((3, 4, 5)), np.zeros((3, 5, 6))
    flop, nbytes = tracer_mod.kernel_cost("matmul", (a, b), np.zeros((3, 4, 6)))
    assert flop == 2 * 3 * 4 * 5 * 6
    assert nbytes == (60 + 90 + 72) * 8
    x, w = np.zeros((16, 100), np.float32), np.zeros((16, 7), np.float32)
    flop, nbytes = tracer_mod.kernel_cost("depthwise_conv1d", (x, w), x)
    assert flop == 2 * 16 * 100 * 7
    assert nbytes == (1600 + 112 + 1600) * 4


def tiny_round(seed, trace):
    """One traced or untraced 14-step train_tiny round."""
    wl = workloads.TrainWorkload("train_tiny", seed, ".", workloads._tiny,
                                 14, None)
    if trace is None:
        return wl.run_phase(1e-9), None
    trace.install(step_ops=True)
    try:
        wl.run_phase(1e-9, trace)
    finally:
        trace.uninstall()
    return None, trace


def test_traced_run_restores_every_binding():
    before = namespace_snapshot()
    trace = Tracer()
    trace.install(step_ops=True)
    try:
        import monosep.block as block
        import monosep.masking as masking
        assert masking.block_forward is not before[
            ("monosep.masking", "block_forward")]
        assert masking.block_forward is block.block_forward
    finally:
        trace.uninstall()
    assert_same_bindings(before, namespace_snapshot())
    tiny_round(3, Tracer())
    assert_same_bindings(before, namespace_snapshot())


def test_untraced_run_installs_no_wrappers(monkeypatch, tmp_path):
    before = namespace_snapshot()
    seen = []

    def build_and_check(seed):
        assert_same_bindings(before, namespace_snapshot())
        seen.append(seed)
        return build_model(preset("tiny", dropout_p=0.0), seed=seed)

    def refuse(*args, **kwargs):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(workloads, "_tiny", build_and_check)
    monkeypatch.setattr(Tracer, "install", refuse)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    args = argparse.Namespace(workload="train_tiny", seed=5, seconds=0.05,
                              trace=0)
    result = run.run(args, time.perf_counter(), 1, 1, str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    spec = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert len(seen) == run.SETUPS + 1  # every setup and the one round
    assert_same_bindings(before, namespace_snapshot())


def test_training_counts_repeat_exactly():
    first = tiny_round(7, Tracer())[1]
    second = tiny_round(7, Tracer())[1]
    ops = [op for op in first.op_ids if op is not None]
    assert len(ops) == 14
    assert [op for op in second.op_ids if op is not None] == ops
    for op in ops:
        a, b = first.per_layer([op]), second.per_layer([op])
        for key in COUNTS:
            assert a[key] > 0
            assert b[key] == a[key]


def test_separation_counts_repeat_exactly():
    model = build_model(preset("tiny"), seed=0, dtype=np.float32)
    mixture = np.random.default_rng(0).normal(size=4000) * 0.1
    results = []
    for _ in range(2):
        trace = Tracer()
        trace.install()
        try:
            trace.begin_op(0)
            monosep.model.separate(model, mixture)
            trace.end_op()
        finally:
            trace.uninstall()
        results.append(trace.per_layer([0]))
    for key in ("autodiff.ops", "attention.local_chunks"):
        assert results[0][key] > 0
        assert results[1][key] == results[0][key]
    assert results[0]["autodiff.tape_nodes"] == 0
    # 999 frames in chunks of 8, once per block
    assert results[0]["attention.local_chunks"] == 125
    assert results[0]["model.separate_ms"] >= results[0]["masking.forward_ms"]
