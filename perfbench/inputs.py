"""Inputs of the benchmark workloads, built only from the seed argument.

``cli-mix`` draws from a fixed catalogue of CLI requests whose ``--json``
stdout digests are recorded in ``digests.json``; the seed fixes the order of
each pass over it.  ``oper-rank6`` builds generic connections from the seed.  The
program itself never sees the seed, only the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# Exponents and coefficients of a generic connection entry: every entry is
# c_{-2} t^-2 + c_{-1} t^-1 + c_0 with nonzero c_k = num/den, so no seed
# draws a degenerate (cheaper) matrix.
EXPONENTS = (-2, -1, 0)
NUMERATORS = (-3, -2, -1, 1, 2, 3)
DENOMINATORS = (1, 2, 3)


def connection_payload(rng, rank):
    """A rank x rank connection matrix in the CLI's JSON format."""
    matrix = []
    for _ in range(rank):
        row = []
        for _ in range(rank):
            terms = [
                [e, str(Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS)))]
                for e in EXPONENTS
            ]
            row.append({"terms": terms})
        matrix.append(row)
    return {"rank": rank, "matrix": matrix}


def oper_payload(seed, index, rank):
    """The index-th connection of a run with this seed."""
    return connection_payload(random.Random(f"oper:{seed}:{index}"), rank)


def _laurent(*terms):
    return {"terms": [[e, c] for e, c in terms]}


def _catalogue():
    entries = []

    def add(*argv):
        name = " ".join(
            a if len(a) < 40 else "<" + hashlib.sha256(a.encode()).hexdigest()[:8] + ">"
            for a in argv
        )
        entries.append((name, list(argv) + ["--json"]))

    for n in range(2, 6):
        add("ss", "--n", str(n))
        add("hc", "--n", str(n))
    for case in ("km0", "congruence", "moyprasad"):
        for n in range(2, 5):
            for m in (1, 2):
                add("verify", "--case", case, "--n", str(n), "--m", str(m))
    for n in (3, 4):
        for m in (1, 2):
            add("report", "--n", str(n), "--m", str(m))
    add("act", "--case", "congruence", "--n", "2", "--m", "1", "--ell", "2", "--N", "1")
    add("act", "--case", "km0", "--n", "3", "--m", "1", "--ell", "3", "--N", "2")
    add("act", "--case", "moyprasad", "--n", "2", "--m", "1", "--x", "1/2,0",
        "--r", "0", "--ell", "2", "--N", "0")
    for h in (
        [_laurent((-1, "1")), _laurent((0, "2"))],
        [_laurent((-2, "1"), (0, "1/3")), _laurent((-1, "-1")), _laurent((-3, "2"))],
    ):
        add("miura", "--data", json.dumps(h))
    for a in (
        [_laurent((-1, "1")), _laurent((-2, "1"))],
        [_laurent((-2, "1/2")), _laurent((-1, "3")), _laurent((-5, "1"), (0, "1"))],
    ):
        add("irr", "--data", json.dumps({"rank": len(a), "a": a}))
    for rank in (3, 4):
        conn = connection_payload(random.Random(f"cli:{rank}"), rank)
        add("cyclic", "--data", json.dumps(conn))
        add("oper", "--data", json.dumps({"connection": conn}))
    return entries


# (name, argv) pairs; names are unique and key the recorded digests.
CATALOGUE = _catalogue()


PASSES = 2  # catalogue passes per round: 82 requests put ten above p87


def cli_round(seed, round_index, catalogue=CATALOGUE):
    """Every catalogue entry PASSES times, each pass in an order drawn from
    the seed."""
    order = []
    for index in range(PASSES):
        one_pass = list(catalogue)
        random.Random(f"cli:{seed}:{round_index}:{index}").shuffle(one_pass)
        order += one_pass
    return order


def load_digests():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)
