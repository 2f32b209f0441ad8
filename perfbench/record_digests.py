"""Record the output digests that the benchmark's correctness gate compares.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are trusted: it rewrites digests.json
with the SHA-256 of every cli-mix request's stdout and of the chain output at
the ranks the benchmark and its smoke test use.
"""

from __future__ import annotations

import hashlib
import json
import sys

from inputs import CATALOGUE, DIGESTS
from run import ROOT, Runner, check_cli_output

CHAIN_RANKS = (2, 5)


def main():
    runner = Runner()
    cli = {}
    for name, argv in CATALOGUE:
        proc = runner._spawn([sys.executable, "-m", "critcenter.cli", *argv])
        digest = hashlib.sha256(proc.stdout).hexdigest()
        problems = check_cli_output(proc.stdout, digest)
        if proc.returncode != 0 or problems:
            raise SystemExit(f"{name}: exit {proc.returncode} {problems}")
        cli[name] = digest

    sys.path.insert(0, str(ROOT / "src"))
    from critcenter import modules, sugawara
    from job import chain_digest

    chain = {}
    for n in CHAIN_RANKS:
        report = modules.vanishing_report(n, modules.root_fn_km0(n, 1))
        if not all(report["verified"]):
            raise SystemExit(f"chain n={n}: vanishing not verified")
        chain[str(n)] = chain_digest(sugawara.ss_vectors(n), report)

    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"chain": chain, "cli": cli}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
