"""Checks of the benchmark itself, on the fast profile at tiny sizes.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ and tests/ on the import path)
import tracing  # noqa: E402
from workloads import FAST, WORKLOADS  # noqa: E402

from oope import paillier, transport  # noqa: E402
from oope.cluster import LocalCluster  # noqa: E402
from oope.ot import GROUP_TEST  # noqa: E402
from oope.rng import make_rng  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    w = WORKLOADS[name]
    params = dict(w.params, key_bits=FAST["key_bits"])
    return dataclasses.replace(w, params=params, ot_group=GROUP_TEST,
                               entries=31, setup_reps=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit(name):
    result = run.run(tiny(name), seed=3, seconds=0.3)
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(v > 0 for k, v in result["metrics"].items()
               if k != "failed_frac")
    assert result["attempted"] >= 2
    if name != "fast-fh-range-tcp":  # see README: known baseline failures
        assert result["correct"], result["failures"]


def test_benchmark_json_matches_the_code():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == {k: run.E2E_UNITS[k] for k in run.JSON_E2E}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers == tracing.metric_units()
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_corrupted_order_counted_as_failure(monkeypatch):
    honest = LocalCluster.encrypt
    calls = []

    def corrupt(self, xbar, **kw):
        calls.append(xbar)
        order = honest(self, xbar, **kw)
        return order + 1 if len(calls) == 2 else order

    monkeypatch.setattr(LocalCluster, "encrypt", corrupt)
    result = run.run(tiny("fast-det-ascending"), seed=4, seconds=0.3)
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["failed_frac"] == 1 / result["attempted"]
    assert result["failures"][0].startswith("op 1: ")


def test_traced_run_attributes_encrypt_to_roles():
    tracer = tracing.Tracer()
    result = run.run(tiny("fast-det-ascending"), seed=5, seconds=0.3,
                     tracer=tracer)
    roles = {s.role for s in tracer.spans() if s.name == "paillier.encrypt"}
    assert {"csp", "da", "setup"} <= roles
    metrics = result["metrics"]
    assert set(metrics) == set(tracing.metric_units())
    assert metrics["paillier.encrypt.csp.calls_per_op"] > 0
    assert metrics["paillier.encrypt.da.calls_per_op"] == 1
    assert metrics["paillier.encrypt.setup.calls"] == 31
    # wrappers are gone once the run ends
    assert not hasattr(paillier.encrypt, "__wrapped__")


def test_frame_accounting_matches_transcripts():
    w = tiny("fast-det-ascending")
    tracer = tracing.Tracer().install()
    try:
        rng = make_rng(6)
        dataset = w.dataset(rng)
        queries = w.queries(rng, dataset)
        cluster, _ = w.setup(dataset, 6)
        run.wait_until_serving()
        setup_len = {ch.name: len(ch.transcript) for ch in cluster.channels}
        tracer.register("da")
        for i in range(3):
            tracer.op = i
            w.op(cluster, next(queries))
        cluster.close()
    finally:
        tracer.uninstall()

    sent = {tracing.SETUP: Counter(), "ops": Counter()}
    for ch in cluster.channels:
        for j, blob in enumerate(ch.transcript):
            phase = tracing.SETUP if j < setup_len[ch.name] else "ops"
            sent[phase][blob[4]] += len(blob)
    counted = {tracing.SETUP: Counter(), "ops": Counter()}
    for (op, ftype), (_, nbytes) in tracer.frames.items():
        counted[tracing.SETUP if op == tracing.SETUP else "ops"][ftype] += \
            nbytes
    assert counted == sent
    assert set(sent[tracing.SETUP]) == {transport.HELLO, transport.OT_MSG}
