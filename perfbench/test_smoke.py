"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

The chain at n=2, a 3-request CLI mix and one rank-3 connection, untraced
and traced: every metric is reported with its unit, every job passes its
gate, and the gate fails a request whose recorded digest is corrupted.
"""

import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from inputs import CATALOGUE, PASSES, load_digests  # noqa: E402

TINY_MIX = [
    entry for entry in CATALOGUE
    if entry[0] in ("ss --n 2", "hc --n 3", "verify --case km0 --n 2 --m 1")
]
TINY = {
    "chain-n5": lambda: run.chain_rounds(1, n=2),
    "cli-mix": lambda: run.cli_rounds(1, catalogue=TINY_MIX),
    "oper-rank6": lambda: run.oper_rounds(1, rank=3),
}
# A layer each tiny workload must reach when traced.
REACHED = {
    "chain-n5": "modules.act.calls",
    "cli-mix": "cli.run.s",
    "oper-rank6": "diffop.laurent_matrix_det.calls",
}


def _measure(workload, traced):
    runner = run.Runner(spans_path=run.OUT / "spans-smoke.jsonl")
    m = run.measure(runner, TINY[workload](), seconds=0, traced=traced)
    if traced:
        metrics, units = run.per_layer_metrics(m), run.PER_LAYER
    else:
        setup_s = runner.setup_s(probes=1)
        metrics = run.end_to_end_metrics(m, setup_s, run.speed_factor(runner.probes))
        units = run.END_TO_END
    out = io.StringIO()
    run.report(workload, m, metrics, units, out=out)
    return m, out.getvalue().splitlines(), units


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_reported_with_its_unit(workload, traced):
    m, lines, units = _measure(workload, traced)
    assert m.errors == []
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    jobs = len(TINY_MIX) * PASSES if workload == "cli-mix" else 1
    assert result["attempted"] == (2 if traced else 1) * jobs
    assert {name: v["unit"] for name, v in result["metrics"].items()} == units
    printed = {line.split()[0]: line for line in lines[:-1]}
    for name, unit in units.items():
        assert f" {unit}" in printed[name]
    if traced:
        assert result["metrics"][REACHED[workload]]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_gate_catches_corrupted_digest():
    digests = dict(load_digests()["cli"])
    corrupted = TINY_MIX[0][0]
    digests[corrupted] = "0" * 64
    rounds = run.cli_rounds(1, catalogue=TINY_MIX, digests=digests)
    m = run.measure(run.Runner(), rounds, seconds=0)
    assert (m.attempted, m.failed) == (3 * PASSES, PASSES)
    assert m.errors[0].startswith(f"{corrupted}: stdout digest")
