"""Tests of the benchmark itself, on cut-down copies of two workloads.

    python3 -m pytest perfbench/tests -q

The cut-down workloads keep the real items and arguments but run only a few
of them, so each test takes seconds instead of a full pass.
"""
import contextlib
import copy
import io
import json

import pytest

from perfbench import ROOT, bench, run
from perfbench.workloads import (DEFAULT_SEED, WORKLOADS, Decompose,
                                 GeneralOrder)


def _only(steps, names):
    return [s for s in steps if s.name in names]


class SmallDecompose(Decompose):
    """Gate-10 case 2 (which the CLI also runs) and the coarsest cuts."""

    def prepare(self, ctx, seed):
        return _only(super().prepare(ctx, seed),
                     ("case-2-mu", "cut-mu-1e-03", "cut-lebesgue-1e-03"))

    def cli_steps(self, seed):
        return [s for s in super().cli_steps(seed) if s.covers == "case-2-mu"]


class SmallGeneral(GeneralOrder):
    """A series-kernel estimate and the Duhamel closure at nu = 1."""

    def prepare(self, ctx, seed):
        return _only(super().prepare(ctx, seed),
                     ("estimates-heat-large-t", "duhamel-closure"))

    def cli_steps(self, seed):
        return []


@pytest.fixture(scope="module")
def manifest():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reference():
    return bench.load_reference()


@pytest.fixture
def corrupted_reference(reference):
    """The recorded reference with one detail count off by one."""
    bad = copy.deepcopy(reference)
    bad["decompose"]["items"]["case-2-mu"]["n_details"] += 1
    return bad


def _printed_result(monkeypatch, trace):
    monkeypatch.setitem(WORKLOADS, "small", SmallDecompose())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "small", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_printed_metrics_match_manifest(monkeypatch, manifest, trace,
                                        section):
    result = _printed_result(monkeypatch, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in manifest[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_manifest_names_real_workloads(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", [SmallDecompose(), SmallGeneral()],
                         ids=["decompose", "general-order"])
def test_traced_outputs_are_bit_identical(workload, reference):
    result = bench.measure_traced(workload, DEFAULT_SEED, reference)
    base, traced = result["passes"]
    assert base.outputs and set(base.outputs) == set(traced.outputs)
    assert json.dumps(base.outputs, sort_keys=True) == \
        json.dumps(traced.outputs, sort_keys=True)
    assert result["spans"] > 0
    assert result["failed"] == 0


def test_reference_values_pass(reference):
    result = bench.measure(SmallDecompose(), DEFAULT_SEED, 0.0, reference)
    assert result["failed"] == 0
    assert result["attempted"] == 3


def test_corrupted_reference_counts_as_failure(corrupted_reference):
    result = bench.measure(SmallDecompose(), DEFAULT_SEED, 0.0,
                           corrupted_reference)
    assert result["failed"] == 1
    (p,) = result["passes"]
    assert any("n_details" in m for m in p.failures["case-2-mu"])


def test_corrupted_reference_raises_error_rate(corrupted_reference):
    result = bench.measure_traced(SmallDecompose(), DEFAULT_SEED,
                                  corrupted_reference)
    # the item fails in both the untraced and the traced pass
    assert result["metrics"]["error_rate"][0] == pytest.approx(2 / 6)
