"""Command-line front end.

Every command is deterministic given its flags and prints machine-readable
output on stdout (JSON by default, maps in sorted key order); diagnostics go
to stderr.  The exit code is 0 exactly when all requested checks PASS.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import __version__
from .counts import (
    METHODS,
    DegreeCapError,
    HurwitzRequest,
    hurwitz_number,
    request_status,
    result_record,
    route_series,
)
from .kinds import ALL_KINDS, HurwitzKind, check_profile
from .partitions import enumerate_partitions
from .polycheck import admissible_residue_classes, verify_quasipolynomiality
from .spectral import (
    CheckReport,
    check_F01,
    check_bergman02,
    check_case_identities,
    xi_derivative_coefficient,
    xi_derivative_series,
)


def _parse_ints(flag: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}")


def _parse_mu(text: str) -> tuple[int, ...]:
    mus = _parse_ints("--mu", text)
    check_profile(mus, "--mu")
    return mus


def _int_at_least(low: int):
    """argparse type: an integer >= low, or a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    elif fmt == "csv":
        # payload-level fields ride on every row; a row's own field wins
        extra = {k: payload[k] for k in ("status", "oracle") if k in payload}
        rows = [{**extra, **row} for row in
                payload.get("results", []) + payload.get("disagreements", [])]
        keys = sorted({k for row in rows for k in row})
        print(",".join(keys))
        for row in rows:
            print(",".join(_csv_cell(row.get(k)) for k in keys))
    else:
        print(f"# {payload['command']}  status={payload['status']}")
        if "oracle" in payload:
            print(f"# oracle = {payload['oracle']}")
        for key, val in sorted(payload.get("params", {}).items()):
            print(f"#   {key} = {val}")
        for row in payload.get("results", []):
            print("  ".join(f"{k}={_csv_cell(v)}" for k, v in sorted(row.items())))
        for row in payload.get("disagreements", []):
            print("# disagreement  " + "  ".join(f"{k}={v}" for k, v in sorted(row.items())))


def _csv_cell(value) -> str:
    """A cell with no comma: a list as [item item ...] of its items' cells, a dict as JSON, , as ;."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + " ".join(_csv_cell(x) for x in value) + "]"
    text = json.dumps(value, sort_keys=True) if isinstance(value, dict) else str(value)
    return text.replace(",", ";")


# -- commands ----------------------------------------------------------------


def cmd_compute(args) -> dict:
    kind = HurwitzKind.parse(args.kind)
    mus = _parse_mu(args.mu)
    connected = not args.disconnected
    methods = METHODS if args.method == "all" else (args.method,)
    results, values, skipped = [], [], False
    for method in methods:
        req = HurwitzRequest(kind, args.r, args.g, mus, connected=connected,
                             method=method)
        try:
            value = hurwitz_number(req)
        except DegreeCapError:
            if args.method != "all":
                raise
            skipped = True
            continue
        record = result_record(req, value)
        reason = request_status(req)
        if reason:
            record["note"] = reason
        results.append(record)
        values.append((method, value))
    payload = {"command": "compute",
               "params": {"kind": kind.value, "r": args.r, "g": args.g,
                          "mu": list(mus), "connected": connected,
                          "method": args.method},
               "results": results, "status": "PASS"}
    if skipped:
        payload["oracle"] = "skipped"
    disagreements = [_witness(a, va, b, vb) for (a, va), (b, vb)
                     in itertools.combinations(values, 2) if va != vb]
    if disagreements:
        payload["status"] = "FAIL"
        payload["disagreements"] = disagreements
    return payload


def _witness(route_a: str, value_a, route_b: str, value_b, **where) -> dict:
    """One disagreement: the two routes, where they differ and both values."""
    return {"routes": f"{route_a}/{route_b}", **where,
            route_a: str(value_a), route_b: str(value_b)}


def cmd_series(args) -> dict:
    kind = HurwitzKind.parse(args.kind)
    mus = _parse_mu(args.mu)
    connected = not args.disconnected
    coeffs = route_series(args.method, kind, args.r, mus, args.order, connected)
    results = [{"b": b, "value": str(c)} for b, c in enumerate(coeffs)]
    return {"command": "series",
            "params": {"kind": kind.value, "r": args.r, "mu": list(mus),
                       "connected": connected, "method": args.method,
                       "order": args.order},
            "results": results, "status": "PASS"}


def cmd_verify_quasipoly(args) -> dict:
    kind = HurwitzKind.parse(args.kind)
    if args.eta is not None:
        eta = _parse_ints("--eta", args.eta)
        if len(eta) != args.n or any(not 0 <= e < args.r for e in eta):
            raise ValueError(f"--eta {args.eta} must be --n {args.n} residues "
                             f"in [0, {args.r})")
        if sum(eta) % args.r:
            raise ValueError(f"--eta {args.eta} is not admissible: its residues sum to "
                             f"{sum(eta)}, and only classes with sum = 0 mod r = "
                             f"{args.r} carry nonzero numbers")
        classes = [eta]
    else:
        classes = admissible_residue_classes(args.r, args.n)
    for residues in classes:
        if args.r * args.grid_base + min(residues) < 1:
            raise ValueError(f"--grid-base {args.grid_base} gives class {list(residues)} "
                             "an entry r*nu + eta_i < 1")
    results, ok = [], True
    for residues in classes:
        report = verify_quasipolynomiality(kind, args.r, args.g, args.n, residues,
                                           grid_base=args.grid_base,
                                           holdout_count=args.holdouts)
        ok = ok and report.passed
        results.append(report.to_json())
    return {"command": "verify-quasipoly",
            "params": {"kind": kind.value, "r": args.r, "g": args.g, "n": args.n,
                       "grid_base": args.grid_base, "holdouts": args.holdouts},
            "results": results, "status": "PASS" if ok else "FAIL"}


def cmd_xi(args) -> dict:
    kind = HurwitzKind.parse(args.kind)
    if not 0 <= args.i < args.r:
        raise ValueError(f"--i {args.i} must lie in [0, {args.r - 1}] for --r {args.r}")
    start = 1 if kind is HurwitzKind.STRICT else 0
    if args.order - args.derivative < start:
        if not args.derivative:
            raise ValueError(f"--order {args.order} leaves no exponent to check: "
                             f"{kind.value} exponents start at {start}")
        raise ValueError(f"--derivative {args.derivative} leaves no exponent "
                         f"to check at --order {args.order}")
    series = xi_derivative_series(kind, args.r, args.i, args.derivative,
                                  args.order - args.derivative)
    results, ok = [], True
    for mu, got in enumerate(series[start:], start):
        closed = xi_derivative_coefficient(kind, args.r, args.i, args.derivative, mu)
        match = got == closed
        ok = ok and match
        if got or closed:
            results.append({"exponent": mu, "value": str(got),
                            "closed_form": str(closed), "match": match})
    if not results:
        raise ValueError(f"no exponent up to --order {args.order} has a nonzero "
                         f"coefficient to compare for --r {args.r} --i {args.i}")
    return {"command": "xi",
            "params": {"kind": kind.value, "r": args.r, "i": args.i,
                       "order": args.order, "derivative": args.derivative},
            "results": results, "status": "PASS" if ok else "FAIL"}


def cmd_unstable_check(args) -> dict:
    kind = HurwitzKind.parse(args.kind)
    if args.order < args.r + 1:
        raise ValueError(f"--order {args.order} must be >= r + 1 = {args.r + 1}")
    reports = [check_F01(kind, args.r, args.order)]
    if kind is HurwitzKind.MONOTONE:
        reports.append(check_bergman02(args.r, args.order))
        # each failing case identity, then one row for all of them
        cases = [check_case_identities(args.r, m1, m2) for m1 in range(1, args.order)
                 for m2 in range(m1, args.order + 1 - m1) if (m1 + m2) % args.r == 0]
        failed = [rep for rep in cases if not rep.passed]
        reports += failed + [CheckReport("case_identities", {"r": args.r, "max_total": args.order},
                                         not failed)]
    ok = all(rep.passed for rep in reports)
    return {"command": "unstable-check",
            "params": {"kind": kind.value, "r": args.r, "order": args.order},
            "results": [rep.to_json() for rep in reports], "status": "PASS" if ok else "FAIL"}


# (route, checked route, connected): cross-validate reports the first b at
# which they differ, and marks the checked route skipped past its degree cap
CROSS_CHECKS = (("character", "oracle", False), ("character", "fock", True))


def cmd_cross_validate(args) -> dict:
    kinds = ALL_KINDS if args.kind == "all" else (HurwitzKind.parse(args.kind),)
    if args.max_d < args.r:
        raise ValueError(f"--max-d {args.max_d} leaves no degree divisible by "
                         f"r = {args.r}: nothing to cross-validate")
    results, ok = [], True
    for kind in kinds:
        for d in range(1, args.max_d + 1):
            if d % args.r:
                continue
            for mus in enumerate_partitions(d):
                record = {"kind": kind.value, "r": args.r, "mu": list(mus)}
                witnesses = []
                for route_a, route_b, connected in CROSS_CHECKS:
                    try:
                        checked = route_series(route_b, kind, args.r, mus,
                                               args.max_b, connected)
                    except DegreeCapError:
                        record[route_b] = "skipped"
                        continue
                    pairs = zip(route_series(route_a, kind, args.r, mus,
                                             args.max_b, connected), checked)
                    witnesses.extend(
                        [_witness(route_a, va, route_b, vb, b=b)
                         for b, (va, vb) in enumerate(pairs) if va != vb][:1])
                if witnesses:
                    record["disagreements"] = witnesses
                record["status"] = "FAIL" if witnesses else "PASS"
                ok = ok and not witnesses
                results.append(record)
    return {"command": "cross-validate",
            "params": {"kind": args.kind, "r": args.r,
                       "max_d": args.max_d, "max_b": args.max_b},
            "results": results, "status": "PASS" if ok else "FAIL"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitz",
        description="Exact monotone / strictly monotone / usual r-orbifold "
                    "Hurwitz numbers, with built-in cross-validation.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kind_r(p, kinds=ALL_KINDS):
        p.add_argument("--kind", required=True, choices=[k.value for k in kinds])
        p.add_argument("--r", type=_int_at_least(1), required=True)

    p = sub.add_parser("compute", help="one Hurwitz number, optionally by all routes")
    add_kind_r(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--disconnected", action="store_true")
    p.add_argument("--method", choices=METHODS + ("all",), default="character")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("series", help="genus series coefficients h_b for b <= order")
    add_kind_r(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.add_argument("--disconnected", action="store_true")
    p.add_argument("--method", choices=METHODS, default="character")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify-quasipoly", help="interpolation check of the "
                                                "quasi-polynomial structure")
    add_kind_r(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--eta", default=None, help="residue class (default: all admissible)")
    p.add_argument("--grid-base", type=int, default=1)
    p.add_argument("--holdouts", type=_int_at_least(1), default=3)
    p.set_defaults(func=cmd_verify_quasipoly)

    p = sub.add_parser("xi", help="xi basis expansion vs closed form")
    add_kind_r(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.add_argument("--derivative", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_xi)

    p = sub.add_parser("unstable-check", help="(0,1) and (0,2) identities")
    add_kind_r(p, kinds=(HurwitzKind.MONOTONE, HurwitzKind.STRICT))
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.set_defaults(func=cmd_unstable_check)

    p = sub.add_parser("cross-validate", help="route agreement sweep")
    p.add_argument("--kind", default="all", choices=("all",) + tuple(k.value for k in ALL_KINDS))
    p.add_argument("--r", type=_int_at_least(1), required=True)
    p.add_argument("--max-d", type=_int_at_least(0), default=6)
    p.add_argument("--max-b", type=_int_at_least(0), default=5)
    p.set_defaults(func=cmd_cross_validate)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: an argument is too large to compute with ({exc})", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 0 if payload["status"] == "PASS" else 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: exit as SIGPIPE would, without a
        # traceback, and let the flush at interpreter exit go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)  # 128 + SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
