"""Command-line interface.

Subcommands: check, transform, combine, eval, wmat, fixtures. Every command
prints a JSON report to stdout. Exit codes: 0 = pass, 1 = usage/IO/tool
error, 2 = refuted by a concrete witness, 3 = inconclusive. A usage, input or
IO error prints one ``error:`` line to stderr and nothing to stdout; only
check's ``tool-error`` verdict exits 1 with a report. ``--eta`` must lie in
(1, inf], finite only with ``--family b`` or ``db``. ``--tol-psd`` and
``--tol-oracle`` must be finite and non-negative. Every option is read by
its command or refused: ``check`` takes both tolerances, ``transform`` and
``combine`` only ``--tol-psd``.
``transform`` takes ``--family``, ``--eta``, ``--p-matrix`` and
``--tol-psd`` only with ``--op balance``, and ``--t-matrix`` only with
``--op coords``; ``wmat --p-matrix`` needs ``--n`` equal to the size of P
and excludes ``--balanced``. Every oracle of ``check`` passes a point whose
margin is at least ``-tol_oracle`` times the size of the terms that cancel in
it, taken in the margin's own direction v (1 + ||F(z) v||), and
``check --lossless`` asks ||Q~||_2 <= tol_oracle of the balanced Q~ of a
verified P. An oracle that keeps no grid point, each one pole-adjacent or
overflowing, is no evidence: its ``worst_margin`` is null, and ``check`` is
inconclusive unless a verified certificate carries the verdict.
``fixtures`` takes ``--a``/``--b``, finite, only for F1-F3.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from .convexity import random_isometry_family, verify_preservation
from .exceptions import BadParams, PassivityError
from .families import (
    DEFAULT_GRID,
    ORACLE_TOL,
    MembershipReport,
    bilinear_substitute,
    cayley_function,
    check,
    family_domain,
    make_grid,
)
from .fixtures import FIXTURE_NAMES, fixture
from .qmi import (
    Certificate,
    Family,
    FamilyTag,
    NotFound,
    balance,
    build_balanced_weight,
    build_weight,
    solve_p,  # noqa: F401  (bound for perfbench/test_perfbench.py, which reads cli.solve_p)
    verify_kyp,
)
from .realization import change_coordinates, evaluate, invert_array, invert_function
from .serialization import (
    _dumps,
    file_digest,
    load_isometry_family,
    load_matrix,
    load_realization,
    save_realization,
)
from ._linalg import seeded, spectral_norm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REFUTED = 2
EXIT_INCONCLUSIVE = 3

#: the exit code of each verdict of `families.check`
CHECK_EXITS = {"pass": EXIT_OK, "refuted-by-witness": EXIT_REFUTED, "inconclusive": EXIT_INCONCLUSIVE,
               "tool-error": EXIT_ERROR}

FAMILY_CODES = {
    "p": Family.POSITIVE_REAL,
    "b": Family.BOUNDED_REAL,
    "dp": Family.DISCRETE_POSITIVE_REAL,
    "db": Family.DISCRETE_BOUNDED_REAL,
}


def _default_seed() -> int:
    """PASSIVITY_SEED read by the seed rule; unset or empty means 0."""
    text = os.environ.get("PASSIVITY_SEED", "")
    if not text:
        return 0
    try:
        seed = int(text)
    except ValueError:
        raise BadParams(f"PASSIVITY_SEED must be an integer, got {text!r}") from None
    seeded(seed)
    return seed


def _read(report: dict, path: str, loader):
    """`loader(path)`, with the file's digest recorded once it has loaded."""
    value = loader(path)
    report["inputs"][path] = file_digest(path)
    return value


def _report_point(z: complex | None):
    """A point as [re, im]; complex infinity as "infinity", so the JSON
    stays standard."""
    if z is None:
        return None
    return [float(z.real), float(z.imag)] if np.isfinite(z) else "infinity"


def _report_oracle(rep: MembershipReport) -> dict:
    out = {
        "family": rep.family,
        "verdict": rep.verdict,
        "worst_margin": rep.worst_margin if rep.samples_used else None,
        "samples_used": rep.samples_used,
        "skipped": rep.skipped,
        "tol": rep.tol,
    }
    if rep.worst_point is not None:
        out["worst_point"] = _report_point(rep.worst_point)
    return out


def _report_certificate(cert: Certificate) -> dict:
    return {
        "family": cert.family.label,
        "status": cert.status.value,
        "min_eig_p": None if math.isinf(cert.min_eig_p) else cert.min_eig_p,
        "min_eig_q": cert.min_eig_q,
        "p": cert.p,
    }


def _tag(args) -> FamilyTag:
    return FamilyTag(FAMILY_CODES[args.family], math.inf if args.eta is None else args.eta)


def cmd_check(args, report) -> int:
    r = _read(report, args.file, load_realization)
    tag = _tag(args)
    grid = make_grid(family_domain(tag), args.grid, args.grid, args.seed)
    if args.lossless and tag.family.is_discrete:  # before --p-matrix is read: a bad flag is reported first
        raise BadParams("--lossless needs --family p or b")
    p = _read(report, args.p_matrix, load_matrix) if args.p_matrix else None
    v = check(r, tag, grid, p=p, solve=args.solve, lossless=args.lossless, tol_psd=args.tol_psd,
              tol_oracle=args.tol_oracle)
    report.update(family=tag.label, verdict=v.verdict, oracle=_report_oracle(v.oracle),
                  minimal=dict(zip(("minimal", "rank_ctrb", "rank_obsv"), v.minimal)),
                  grid={"domain": grid.domain.value, "boundary": int(grid.boundary_points.size),
                        "interior": int(grid.interior_points.size), "seed": grid.seed})
    if v.lossless_oracle is not None:
        report["lossless_oracle"] = _report_oracle(v.lossless_oracle)
    if isinstance(v.certificate, NotFound):
        found = v.certificate
        report["solver"] = {"status": "not-found", "iterations": found.iterations, "residual": found.residual,
                            "stop": found.stop, "witness": _report_point(found.witness),
                            "note": "not a proof of non-membership"}
    elif v.certificate is not None:
        report["certificate"] = _report_certificate(v.certificate)
    if v.lossless_qmi is not None:
        report["lossless_qmi"] = v.lossless_qmi
    if v.note is not None:
        report["note"] = v.note
    return CHECK_EXITS[v.verdict]


#: the transforms that need no input besides the realization
TRANSFORMS = {
    "cayley-fn": cayley_function,
    "bilinear": bilinear_substitute,
    "invert-array": invert_array,
    "invert-fn": invert_function,
}


def cmd_transform(args, report) -> int:
    if args.op != "balance" and (args.family or args.eta is not None or args.p_matrix or args.tol_psd is not None):
        raise BadParams("--family, --eta, --p-matrix and --tol-psd apply only to --op balance")
    if args.op != "coords" and args.t_matrix:
        raise BadParams("--t-matrix applies only to --op coords")
    r = _read(report, args.file, load_realization)
    report["op"] = args.op
    if args.op == "coords":
        if not args.t_matrix:
            raise BadParams("--op coords needs --t-matrix")
        out = change_coordinates(r, _read(report, args.t_matrix, load_matrix))
    elif args.op == "balance":
        if not args.p_matrix or not args.family:
            raise BadParams("--op balance needs --p-matrix and --family")
        p = _read(report, args.p_matrix, load_matrix)
        cert = verify_kyp(r, p, _tag(args), args.tol_psd)
        if not cert.verified:
            report["certificate"] = _report_certificate(cert)
            report["verdict"] = "certificate-not-verified"
            return EXIT_INCONCLUSIVE
        out, new_cert = balance(r, cert)
        report["certificate"] = _report_certificate(new_cert)
    else:
        out = TRANSFORMS[args.op](r)
    save_realization(args.output, out)
    report["output"] = args.output
    report["verdict"] = "ok"
    return EXIT_OK


def cmd_combine(args, report) -> int:
    paths = [p for p in args.inputs.split(",") if p]
    if not paths:
        raise BadParams("--inputs needs at least one file")
    rs = [_read(report, p, load_realization) for p in paths]
    tag = _tag(args)
    if args.isometries:
        fam = _read(report, args.isometries, load_isometry_family)
    else:
        k = args.random or len(rs)
        if k != len(rs):
            raise BadParams(f"--random {k} does not match {len(rs)} inputs")
        fam = random_isometry_family(k, rs[0].n, rs[0].m, args.seed)
    result = verify_preservation(rs, fam, tag, args.tol_psd)
    save_realization(args.output, result.combined)
    report["output"] = args.output
    report["family"] = tag.label
    report["per_input"] = [_report_certificate(c) for c in result.per_input]
    report["combined"] = _report_certificate(result.certificate)
    report["combined"]["q_norm"] = spectral_norm(result.certificate.q)
    ok = result.certificate.verified
    report["verdict"] = "pass" if ok else "inconclusive"
    return EXIT_OK if ok else EXIT_INCONCLUSIVE


def cmd_eval(args, report) -> int:
    r = _read(report, args.file, load_realization)
    try:
        re_s, im_s = args.at.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError:
        raise BadParams(f"--at expects 're,im', got {args.at!r}") from None
    report["z"] = _report_point(z)
    report["value"] = evaluate(r, z)
    return EXIT_OK


def cmd_wmat(args, report) -> int:
    tag = _tag(args)
    if args.p_matrix and args.balanced:
        raise BadParams("--balanced and --p-matrix exclude each other")
    if args.p_matrix:
        w = build_weight(tag, _read(report, args.p_matrix, load_matrix), args.m)
        if w.n != args.n:
            raise BadParams(f"--n {args.n} does not match the {w.n} x {w.n} P of --p-matrix")
    else:
        w = build_balanced_weight(tag, args.n, args.m)
    report.update(family=tag.label, n=w.n, m=w.m, entries=w.entries)
    return EXIT_OK


def cmd_fixtures(args, report) -> int:
    r = fixture(args.name, a=args.a, b=args.b)
    meta = {"name": args.name}
    if args.name in ("F1", "F2", "F3"):
        meta["params"] = {"a": args.a if args.a is not None else 1.0,
                          "b": args.b if args.b is not None else 1.0}
    save_realization(args.output, r, metadata=meta)
    report["fixture"] = meta
    report["output"] = args.output
    return EXIT_OK


def _number(kind, valid, rule: str):
    """An argparse type: `kind(text)`, which must satisfy `valid`."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    return parse


_positive_int = _number(int, lambda value: value >= 1, "a positive integer")
_tolerance = _number(float, lambda value: math.isfinite(value) and value >= 0.0, "finite and non-negative")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # `main` prints a usage error as it prints any other
        raise BadParams(message)


def _add_family(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--family", required=required, choices=sorted(FAMILY_CODES))
    p.add_argument("--eta", type=float, help="hyper-bounded parameter in (1, inf], finite only for b and db")


def _add_tol_psd(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-psd", type=_tolerance, default=None, help="PSD slack for certificates")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="grid/random seed (default $PASSIVITY_SEED or 0)")
    p.add_argument("--deterministic", action="store_true", help="suppress the timestamp field")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; the environment is read
    at each call of `main`, not here."""
    parser = _Parser(prog="kypcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kypcert {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="verify family membership (certificate and sampling oracle)")
    _add_family(p, required=True)
    p.add_argument("--lossless", action="store_true", help="also run the lossless boundary checks")
    p.add_argument("--p-matrix", default=None, help="verify this certificate P (matrix document)")
    p.add_argument("--solve", action="store_true", help="search for a certificate P")
    p.add_argument("--grid", type=_positive_int, default=DEFAULT_GRID, help="boundary/interior sample counts")
    p.add_argument("file")
    _add_tol_psd(p)
    p.add_argument("--tol-oracle", type=_tolerance, default=ORACLE_TOL, help="relative margin tolerance for oracles")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("transform", help="apply a realization transform")
    p.add_argument("--op", required=True, choices=[*TRANSFORMS, "balance", "coords"])
    p.add_argument("--t-matrix", default=None)
    p.add_argument("--p-matrix", default=None)
    _add_family(p, required=False)
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    _add_tol_psd(p)
    _add_common(p)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("combine", help="matrix-convex combination with certificate preservation")
    _add_family(p, required=True)
    p.add_argument("--inputs", required=True, help="comma-separated realization files")
    p.add_argument("--isometries", default=None, help="isometry family document")
    p.add_argument("--random", type=_positive_int, default=None, help="sample k random tiers instead")
    p.add_argument("-o", "--output", required=True)
    _add_tol_psd(p)
    _add_common(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("eval", help="evaluate the transfer function at a point")
    p.add_argument("--at", required=True, help="complex point as 're,im'")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wmat", help="print a family weight matrix")
    _add_family(p, required=True)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p-matrix", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_wmat)

    p = sub.add_parser("fixtures", help="write a worked-example realization")
    p.add_argument("--name", required=True, choices=list(FIXTURE_NAMES))
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("-o", "--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; print its report, or one ``error:`` line."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        report = {
            "command": argv,
            "tool": {"name": "kypcert", "version": __version__},
            "seed": args.seed,
            "inputs": {},
        }
        code = args.func(args, report)
    except SystemExit as exc:  # --help and --version
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    except (PassivityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not args.deterministic:
        report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(_dumps(report), end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
