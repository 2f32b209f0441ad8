"""Command-line driver.

Every run is deterministic: identical invocations produce byte-identical
output.  Validation problems exit with code 2 and a structured error JSON on
stderr, and a stdout closed by its reader exits 1 quietly; anything else
nonzero signals an internal invariant violation.

Each subcommand imports its own layers when it runs, so ``--help`` and
``--version`` load no layer, ``ss``/``hc`` skip the oper side and the
oper-side commands skip the algebra side.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .errors import CritCenterError, ValidationError

CASES = ("congruence", "km0", "moyprasad")


def _load_payload(args):
    if getattr(args, "data", None):
        text = args.data
    elif getattr(args, "infile", None):
        if args.infile == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ValidationError(f"cannot read {args.infile}: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"payload is not valid JSON: {exc}") from exc


def _emit(args, data, text):
    """Print ``data`` as JSON under ``--json``, else the display ``text()``.

    ``text`` is called only without ``--json``, so no display string is
    built for output that is thrown away.
    """
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(text())


def _root_function(case, n, m, x=None, r=None):
    from .modules import root_fn_constant, root_fn_km0, root_fn_moy_prasad

    if case != "moyprasad" and (x is not None or r is not None):
        raise ValidationError(f"--x and --r apply to --case moyprasad only, not {case!r}")
    if case == "congruence":
        return root_fn_constant(n, m)
    if case == "km0":
        return root_fn_km0(n, m)
    point = [0] * n if x is None else x.split(",")
    return root_fn_moy_prasad(n, point, m - 1 if r is None else r)


def cmd_ss(args):
    from .sugawara import ss_vectors

    family = ss_vectors(args.n)

    def text():
        lines = [f"rank {args.n} Sugawara vectors"]
        for ell, (s, w) in enumerate(zip(family.S, family.omega), 1):
            lines.append(f"S_{ell} = {s}")
            lines.append(f"omega_{ell} = {w}")
        return "\n".join(lines)

    _emit(args, family.to_json(), text)
    return 0


def cmd_hc(args):
    from .pbw import hc_project
    from .sugawara import ss_vectors

    family = ss_vectors(args.n)
    checks = [hc_project(s) == w for s, w in zip(family.S, family.omega)]
    data = {
        "n": args.n,
        "omega": [w.to_json() for w in family.omega],
        "projection_matches": checks,
    }

    def text():
        lines = [f"rank {args.n} Cartan images"]
        for ell, (w, ok) in enumerate(zip(family.omega, checks), 1):
            lines.append(f"omega_{ell} = {w}")
            lines.append(f"project(S_{ell}) == omega_{ell}: {ok}")
        return "\n".join(lines)

    _emit(args, data, text)
    return 0


def cmd_miura(args):
    from .diffop import miura
    from .laurent import LaurentElement

    payload = _load_payload(args)
    if not isinstance(payload, list):
        raise ValidationError("miura payload is a list of Laurent elements")
    h = [LaurentElement.from_json(entry) for entry in payload]
    chi = miura(h)
    _emit(args, chi.to_json(), lambda: f"oper: {chi}")
    return 0


def cmd_irr(args):
    from .diffop import Oper, irregularity

    chi = Oper.from_json(_load_payload(args))
    value = irregularity(chi)
    _emit(args, {"irregularity": value}, lambda: f"irregularity: {value}")
    return 0


def cmd_cyclic(args):
    from .diffop import Connection, cyclic_vector_search

    conn = Connection.from_json(_load_payload(args))
    found = cyclic_vector_search(conn, args.degree_bound)
    _emit(args, found.to_json(), lambda: (
        "cyclic vector: ("
        + ", ".join(str(c) for c in found.components)
        + f")\ncertificate: {found.certificate}"
    ))
    return 0


def cmd_oper(args):
    from .diffop import Connection, connection_to_oper, cyclic_vector_search
    from .laurent import LaurentElement

    payload = _load_payload(args)
    if not isinstance(payload, dict) or "connection" not in payload:
        raise ValidationError("payload is {'connection': ..., 'vector': [...]}")
    conn = Connection.from_json(payload["connection"])
    if "vector" in payload:
        if not isinstance(payload["vector"], list):
            raise ValidationError("oper payload 'vector' is a list of Laurent elements")
        vector = [LaurentElement.from_json(e) for e in payload["vector"]]
    else:
        vector = cyclic_vector_search(conn, args.degree_bound).components
    chi = connection_to_oper(conn, vector, working_precision=args.precision)
    _emit(args, chi.to_json(), lambda: f"oper: {chi}")
    return 0


def cmd_act(args):
    from .modules import ss_operator_act

    rf = _root_function(args.case, args.n, args.m, args.x, args.r)
    result = ss_operator_act(args.n, args.ell, args.N, rf)
    data = {
        "case": rf.describe(),
        "ell": args.ell,
        "N": args.N,
        "vector": result.to_json(),
        "is_zero": result.is_zero(),
    }
    _emit(args, data, lambda: f"S_{args.ell},[{args.N}] . v0 = {result}")
    return 0


def cmd_verify(args):
    from .modules import vanishing_report

    rf = _root_function(args.case, args.n, args.m, args.x, args.r)
    report = vanishing_report(args.n, rf, scan_window=args.window)

    def text():
        lines = [f"case {report['case']}"]
        for idx in range(args.n):
            lines.append(
                "ell={}: threshold {}  verified {}  observed min vanishing {}".format(
                    idx + 1,
                    report["thresholds_theoretical"][idx],
                    report["verified"][idx],
                    report["observed_min_vanishing"][idx],
                )
            )
        return "\n".join(lines)

    _emit(args, report, text)
    return 0


def cmd_report(args):
    from .modules import conductor_irregularity_report

    report = conductor_irregularity_report(args.n, args.m, scan_window=args.window)
    _emit(args, report, lambda: "\n".join([
        f"case {report['case']}",
        f"pole bounds: {report['pole_bounds']}",
        f"witness oper irregularity: {report['witness_irregularity']}",
        f"irregularity bound: {report['irregularity_bound']}",
        f"vanishing verified: {report['vanishing_verified']}",
    ]))
    return 0


def _add_payload_flags(sub):
    sub.add_argument("--in", dest="infile", metavar="PATH",
                     help="JSON payload file ('-' reads stdin; default stdin)")
    sub.add_argument("--data", help="inline JSON payload")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are validation errors.

    argparse reports a bad or missing argument through ``error``, which
    prints the usage text and exits 2; here it raises instead, so ``run``
    prints the structured error JSON.  ``--help`` and ``--version`` exit
    through ``exit`` and keep their output.  argparse prints that output
    through ``_print_message``, which ignores an ``OSError``; here a stdout
    closed by its reader raises, so they exit 1 as every subcommand does.
    Subparsers share this class.
    """

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser():
    parser = _Parser(
        prog="critcenter",
        description="Exact Sugawara vectors, root-module actions, and the "
        "oper/irregularity calculus for affine gl_n at the critical level.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ss", help="construct the Sugawara vectors")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_ss)

    sub = subs.add_parser("hc", help="Cartan images and the projection identity")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_hc)

    sub = subs.add_parser("miura", help="expand a Cartan tuple into an oper")
    _add_payload_flags(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_miura)

    sub = subs.add_parser("irr", help="irregularity of an oper")
    _add_payload_flags(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_irr)

    sub = subs.add_parser("cyclic", help="find a cyclic vector for a connection")
    _add_payload_flags(sub)
    sub.add_argument("--degree-bound", type=int, default=3)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_cyclic)

    sub = subs.add_parser("oper", help="extract the oper of a connection + cyclic vector")
    _add_payload_flags(sub)
    sub.add_argument("--degree-bound", type=int, default=3)
    sub.add_argument("--precision", type=int, default=None)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_oper)

    def add_case_flags(sub, with_ell=False):
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--case", choices=CASES, required=True)
        sub.add_argument("--m", type=int, default=1)
        sub.add_argument("--x", help="comma-separated rationals (moyprasad point)")
        sub.add_argument("--r", help="rational depth (moyprasad); default m-1")
        if with_ell:
            sub.add_argument("--ell", type=int, required=True)
            sub.add_argument("--N", type=int, required=True)
        sub.add_argument("--json", action="store_true")

    sub = subs.add_parser("act", help="apply one Fourier coefficient to the highest vector")
    add_case_flags(sub, with_ell=True)
    sub.set_defaults(func=cmd_act)

    sub = subs.add_parser("verify", help="scan vanishing thresholds")
    add_case_flags(sub)
    sub.add_argument("--window", type=int, default=3)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("report", help="conductor vs irregularity pipeline")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--window", type=int, default=3)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_report)

    return parser


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CritCenterError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error, sort_keys=True), file=sys.stderr)
        return 2


def main():
    try:
        try:
            code = run()
        finally:  # a closed pipe must fail here, not at shutdown
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``| head``): silence the interpreter's own
        # final flush by pointing stdout at the null device, and exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
