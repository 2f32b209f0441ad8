"""One benchmark job in a fresh interpreter, so no critcenter cache carries over.

    python3 perfbench/job.py chain --n 5 --result R [--trace SPANS]
    python3 perfbench/job.py oper --result R [--trace SPANS] < connection.json
    python3 perfbench/job.py cli --result R --trace SPANS -- <critcenter argv>

``chain`` and ``oper`` time their own work, probing the host-speed reference
(``calibrate.py``) after each timed stage; interpreter start and import are
``setup_s``, not job time.  Both check their output against independent
oracles.  ``cli``
is the traced form of ``python3 -m critcenter.cli``: stdout is the CLI's own.
Every kind writes a JSON result to R: ``ok``, ``errors``, ``rss_mb``, for
``chain`` and ``oper`` the timed seconds ``elapsed_s`` and the reference
``probes``, and when traced ``layers`` (per-layer metrics of this job).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys

from calibrate import Clock
from inputs import load_digests
from spans import Tracer


def chain(n, errors, clock):
    """construct -> project -> certify centrality -> scan vanishing, at rank n."""
    from critcenter import modules, pbw, sugawara

    family = clock.call(sugawara.ss_vectors, n)
    projected = clock.call(
        lambda: [pbw.hc_project(s) == w for s, w in zip(family.S, family.omega)]
    )
    central = [clock.call(modules.state_is_central, s, n) for s in family.S]
    report = clock.call(modules.vanishing_report, n, modules.root_fn_km0(n, 1))

    if not all(projected):
        errors.append(f"projection identity fails for l in {_false(projected)}")
    if not all(central):
        errors.append(f"S_l not central for l in {_false(central)}")
    if not all(report["verified"]):
        errors.append(f"vanishing not verified for l in {_false(report['verified'])}")
    digest = chain_digest(family, report)
    expected = load_digests()["chain"].get(str(n))
    if digest != expected:
        errors.append(f"chain output digest {digest[:12]} != recorded {str(expected)[:12]}")


def chain_digest(family, report):
    """SHA-256 of the chain's exact output: every S_l, omega_l and the scan."""
    output = json.dumps({"family": family.to_json(), "report": report}, sort_keys=True)
    return hashlib.sha256(output.encode()).hexdigest()


def oper(payload, errors, clock):
    """cyclic vector -> oper -> irregularity for one connection."""
    from critcenter import diffop

    conn = diffop.Connection.from_json(payload)

    def extract():
        found = diffop.cyclic_vector_search(conn)
        chi = diffop.connection_to_oper(conn, found)
        return found, chi, diffop.irregularity(chi)

    found, chi, irr = clock.call(extract)
    newton = diffop.newton_polygon_irregularity(chi)
    if irr != newton:
        errors.append(f"pole-order irregularity {irr} != Newton polygon {newton}")
    # D^n v = a_1 D^{n-1} v + ... + a_n v, up to each coefficient's precision
    n = conn.rank
    images = [list(found.components)]
    for _ in range(n):
        images.append(conn.apply(images[-1]))
    for r in range(n):
        rhs = chi.a[0] * images[n - 1][r]
        for ell in range(2, n + 1):
            rhs = rhs + chi.a[ell - 1] * images[n - ell][r]
        if not rhs.agrees_with(images[n][r]):
            errors.append(f"extracted oper fails D^n v = sum a_l D^(n-l) v in row {r}")
            break


def cli(argv):
    from critcenter import cli as critcenter_cli

    return critcenter_cli.run(argv)


def _false(flags):
    return [i + 1 for i, ok in enumerate(flags) if not ok]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("kind", choices=("chain", "oper", "cli"))
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", help="append this job's spans to this file")
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--job-id", type=int, default=0)
    own, cli_argv = sys.argv[1:], []
    if "--" in own:  # critcenter CLI arguments follow "--" (cli kind)
        split = own.index("--")
        own, cli_argv = own[:split], own[split + 1 :]
    args = parser.parse_args(own)

    tracer = None
    if args.trace:
        tracer = Tracer(args.job_id)
        tracer.install()
    errors = []
    result = {}
    code = 0
    if args.kind in ("chain", "oper"):
        clock = Clock()
        if args.kind == "chain":
            chain(args.n, errors, clock)
        else:
            oper(json.load(sys.stdin), errors, clock)
        result.update(elapsed_s=clock.elapsed_s, probes=clock.probes)
    else:
        code = cli(cli_argv)
        sys.stdout.flush()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.trace)
    result["ok"] = not errors
    result["errors"] = errors
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return code


if __name__ == "__main__":
    sys.exit(main())
