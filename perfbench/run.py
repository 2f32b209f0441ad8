"""critcenter benchmark: cold certification chain, CLI request mix, oper extraction.

    python3 perfbench/run.py --workload chain-n5 --seed 1 --seconds 42 --trace 0

Run it from a checkout of the repository; it needs no build, only the
sources under ``src/``.  One client drives a closed loop: the next job starts
when the previous one has finished, and every job runs in a fresh interpreter
so that no critcenter cache carries over (users pay those costs on every CLI
call).  Workloads:

* ``chain-n5``: ss_vectors(5) -> hc_project(S_l) == omega_l -> exact
  centrality of every S_l -> vanishing_report on the km0 m=1 root module.
  The input is fixed, so the seed is unused.
* ``cli-mix``: rounds of fresh ``python3 -m critcenter.cli ... --json``
  processes; a round is two passes over the catalogue in ``inputs.py``, each
  shuffled by the seed.  Only whole rounds run, so every run has the same
  composition.
* ``oper-rank6``: seeded generic rank-6 connections, each through
  cyclic_vector_search -> connection_to_oper -> irregularity.

Every job is checked: the projection identity, exact centrality, every
``verified`` flag, Newton-polygon against pole-order irregularity, the oper
equation within its tracked precision, and the SHA-256 of the chain output
and of every CLI stdout against ``digests.json``.  A failed, timed-out or
wrong job counts in ``failed``.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` each job also runs traced (see ``spans.py``) and
the object holds the per-layer metrics, per job, and the tracing overhead.
Lines before it repeat every metric by name and unit for a reader.

End-to-end times are corrected by the run's host-speed factor
(``calibrate.py``); the printed lines give the raw value beside each.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, reference, speed_factor
from inputs import CATALOGUE, cli_round, load_digests, oper_payload
from spans import layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170  # the whole run, set-up included, ends within this
SETUP_PROBES = 7
CLI_PROBE_EVERY = 4  # requests between host-speed probes

END_TO_END = {
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# What each generic end-to-end metric means on each workload.
ALIASES = {
    "chain-n5": {"job_s.p50": "chain_s", "job_s.tail": "chain_s.tail",
                 "jobs_per_s": "chains_per_s"},
    "cli-mix": {"job_s.p50": "request_s.p50", "job_s.tail": "request_s.tail",
                "jobs_per_s": "requests_per_s"},
    "oper-rank6": {"job_s.p50": "extract_s.p50", "job_s.tail": "extract_s.tail",
                   "jobs_per_s": "extractions_per_s"},
}
PER_LAYER = dict(
    layer_metric_names(),
    **{"cli.process_overhead_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "ratio"},
)


@dataclass
class Job:
    kind: str  # "chain", "oper" or "cli"
    label: str
    args: list
    stdin: bytes = b""
    digest: str | None = None  # expected SHA-256 of stdout (cli)


@dataclass
class Outcome:
    job_s: float = 0.0  # the job's own work (a request: its whole process)
    wall_s: float = 0.0  # process wall time, reference probes excluded
    errors: list = field(default_factory=list)
    layers: dict | None = None


class Runner:
    """Runs jobs one at a time in fresh interpreters against ROOT/src."""

    def __init__(self, spans_path=None):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("CRITCENTER_WORKERS", None)  # the default scan pool
        self.spans_path = spans_path
        self.deadline = time.monotonic() + DEADLINE_S
        self.job_ids = itertools.count(1)
        OUT.mkdir(exist_ok=True)
        self.result_path = OUT / "result.json"
        self.probes = [reference()]  # host-speed reference times of this run
        self.requests = 0

    def probe(self):
        self.probes.append(reference())

    def remaining(self):
        return self.deadline - time.monotonic()

    def _spawn(self, cmd, stdin=b""):
        return subprocess.run(
            cmd, input=stdin, capture_output=True, env=self.env, cwd=ROOT,
            timeout=max(1.0, self.remaining()),
        )

    def setup_s(self, probes=SETUP_PROBES):
        """Median round trip of ``critcenter --version``: launch plus import."""
        cmd = [sys.executable, "-m", "critcenter.cli", "--version"]
        times = []
        for probe in range(probes + 1):
            start = time.perf_counter()
            proc = self._spawn(cmd)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0 or not proc.stdout.strip():
                raise RuntimeError(f"critcenter --version failed: {proc.stderr.decode()[-500:]}")
            if probe:  # the first launch may still be writing bytecode caches
                times.append(elapsed)
        return statistics.median(times)

    def run(self, job, traced=False):
        if job.kind == "cli" and not traced:
            cmd = [sys.executable, "-m", "critcenter.cli", *job.args]
        else:
            cmd = [sys.executable, str(HERE / "job.py"), job.kind,
                   "--result", str(self.result_path), "--job-id", str(next(self.job_ids))]
            if traced:
                cmd += ["--trace", str(self.spans_path)]
            cmd += ["--", *job.args] if job.kind == "cli" else job.args
        self.result_path.unlink(missing_ok=True)
        outcome = Outcome()
        start = time.perf_counter()
        try:
            proc = self._spawn(cmd, job.stdin)
        except subprocess.TimeoutExpired:
            outcome.errors.append(f"{job.label}: timed out")
            return outcome
        outcome.wall_s = outcome.job_s = time.perf_counter() - start
        if job.kind == "cli":
            self.requests += 1
            if self.requests % CLI_PROBE_EVERY == 0:
                self.probe()
        if proc.returncode != 0:
            outcome.errors.append(
                f"{job.label}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}"
            )
        if job.kind != "cli" or traced:
            try:
                with open(self.result_path, encoding="utf-8") as fh:
                    result = json.load(fh)
            except (OSError, ValueError):
                outcome.errors.append(f"{job.label}: no job result")
                return outcome
            outcome.errors += [f"{job.label}: {e}" for e in result["errors"]]
            outcome.layers = result.get("layers")
            if job.kind != "cli":
                self.probes += result["probes"]
                outcome.job_s = result["elapsed_s"]
                outcome.wall_s -= sum(result["probes"])
        if job.digest is not None:
            outcome.errors += [f"{job.label}: {e}" for e in check_cli_output(proc.stdout, job.digest)]
        return outcome


def check_cli_output(stdout, digest):
    """The recorded digest, and every verification flag the output carries."""
    errors = []
    actual = hashlib.sha256(stdout).hexdigest()
    if actual != digest:
        errors.append(f"stdout digest {actual[:12]} != recorded {digest[:12]}")
    try:
        data = json.loads(stdout)
    except ValueError:
        return errors + ["stdout is not JSON"]
    if isinstance(data, dict):
        for key in ("projection_matches", "verified"):
            if key in data and not all(data[key]):
                errors.append(f"{key} is {data[key]}")
        if data.get("vanishing_verified") is False:
            errors.append("vanishing_verified is false")
    return errors


# -- workloads: each yields rounds (lists of jobs) built only from the seed --


def chain_rounds(seed, n=5):
    del seed  # the chain input is fixed
    while True:
        yield [Job("chain", f"chain n={n}", ["--n", str(n)])]


def cli_rounds(seed, catalogue=CATALOGUE, digests=None):
    if digests is None:
        digests = load_digests()["cli"]
    for index in itertools.count():
        yield [Job("cli", name, argv, digest=digests[name])
               for name, argv in cli_round(seed, index, catalogue)]


def oper_rounds(seed, rank=6):
    for index in itertools.count():
        payload = json.dumps(oper_payload(seed, index, rank)).encode()
        yield [Job("oper", f"rank-{rank} connection {index} of seed {seed}", [], stdin=payload)]


WORKLOADS = {"chain-n5": chain_rounds, "cli-mix": cli_rounds, "oper-rank6": oper_rounds}


# -- measurement -----------------------------------------------------------


def tail(samples):
    """(value, percentile, count): the highest order statistic with at least
    ten samples above it, or the median when fewer than 21 samples exist."""
    ordered = sorted(samples)
    count = len(ordered)
    rank = count - 10  # 1-based
    if rank < (count + 1) / 2:
        return statistics.median(ordered), 50.0, count
    return ordered[rank - 1], 100.0 * rank / count, count


@dataclass
class Measurement:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    job_s: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    cli_overhead: list = field(default_factory=list)

    def add(self, outcome):
        self.attempted += 1
        if outcome.errors:
            self.failed += 1
            self.errors += outcome.errors
        return not outcome.errors


def measure(runner, rounds, seconds, traced=False):
    """Closed loop over whole rounds while the next one still fits in
    ``seconds``."""
    m = Measurement()
    start = time.perf_counter()
    done = 0
    for batch in rounds:
        for job in batch:
            plain = runner.run(job)
            if m.add(plain):
                m.job_s.append(plain.job_s)
                m.wall_s.append(plain.wall_s)
            if traced and runner.remaining() > 0:
                outcome = runner.run(job, traced=True)
                if m.add(outcome):
                    m.traced_s.append(outcome.job_s)
                    m.layers.append(outcome.layers)
                    if job.kind == "cli":  # untraced wall time outside cli.run
                        m.cli_overhead.append(plain.wall_s - outcome.layers["cli.run.s"])
            if runner.remaining() <= 0:
                break
        done += 1
        elapsed = time.perf_counter() - start
        if runner.remaining() <= 0 or elapsed * (done + 1) / done > seconds:
            break
    return m


def end_to_end_metrics(m, setup_s, factor):
    """Times corrected by the run's host-speed factor (see calibrate.py)."""
    value, _, _ = tail(m.job_s)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "job_s.p50": statistics.median(m.job_s) * factor,
        "job_s.tail": value * factor,
        "jobs_per_s": len(m.wall_s) / (sum(m.wall_s) * factor),  # one client
        "setup_s": setup_s * factor,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer_metrics(m):
    """Means per traced job; ratios over the jobs that reached the layer."""
    metrics = {}
    for name in layer_metric_names():
        values = [layers[name] for layers in m.layers]
        if name == "modules.scan.workers":
            metrics[name] = max(values)
        elif name.endswith(("_ratio", "_over_wall")):
            reached = [v for v in values if v]
            metrics[name] = statistics.fmean(reached) if reached else 0.0
        else:
            metrics[name] = statistics.fmean(values)
    metrics["cli.process_overhead_s"] = (
        statistics.fmean(m.cli_overhead) if m.cli_overhead else 0.0
    )
    untraced = statistics.median(m.job_s)
    overhead = statistics.median(m.traced_s) - untraced
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced
    return metrics


def report(workload, m, metrics, units, factor=1.0, out=sys.stdout):
    """Readable lines for every metric, then the one-line JSON result."""
    aliases = ALIASES.get(workload, {})
    for name, value in metrics.items():
        alias = aliases.get(name)
        label = f"{name} ({alias})" if alias else name
        line = f"{label} = {value:.6g} {units[name]}"
        if factor != 1.0 and units[name] in ("s", "1/s"):
            raw = value / factor if units[name] == "s" else value * factor
            line += f"  [raw {raw:.6g} {units[name]}]"
        if name == "job_s.tail":
            _, pct, count = tail(m.job_s)
            line += f"  [p{pct:.1f} of {count} jobs]"
        print(line, file=out)
    print(f"failed_frac = {m.failed}/{m.attempted} = {m.failed / m.attempted:.6g}", file=out)
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "critcenter" / "__init__.py").is_file():
        print(f"no critcenter sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spans_path = OUT / f"spans-{args.workload}.jsonl" if args.trace else None
    runner = Runner(spans_path=spans_path)
    if spans_path is not None:
        spans_path.unlink(missing_ok=True)
    setup_s = runner.setup_s()
    m = measure(runner, WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))
    for error in m.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    if not m.job_s or (args.trace and not m.traced_s):
        print("no job completed; no metrics to report", file=sys.stderr)
        return 1
    if args.trace:
        report(args.workload, m, per_layer_metrics(m), PER_LAYER)
    else:
        factor = speed_factor(runner.probes)
        print(f"speed_factor = {factor:.6g} from the median of {len(runner.probes)}"
              f" reference probes against {REFERENCE_S} s")
        report(args.workload, m, end_to_end_metrics(m, setup_s, factor), END_TO_END, factor)
    return 0


if __name__ == "__main__":
    sys.exit(main())
