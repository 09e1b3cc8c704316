"""Command line surface for the package.

Subcommands cover polynomial synthesis (poly, terms), row counting (theta,
tildetheta), the building-block rational functions and their coefficient
series (rw, coeffs), convergence classification (classify), and the two
verification drivers (verify, columns).  Output is deterministic for a fixed
set of flags: every collection is emitted in its canonical order, floats are
printed with repr, and JSON objects use a fixed key layout.

Exit status: 0 on success, 1 when a verification run finds a counterexample,
2 when the input is rejected (unknown words, unsupported primes,
out-of-range bounds).  Any other error is a fault of the program: it ends
with a traceback and status 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .analysis import (
    ConvergenceError,
    RootProfile,
    classify_word,
    coefficient_sum,
    scan_convergent_words,
    term_bound_series,
)
from .ratcore import rational_to_str
from .synth import (
    Monomial,
    block_polynomial,
    block_polynomials_up_to,
    cumulative_polynomial,
    monomial_series,
    r_w_quotient,
)
from .theta import T_poly, theta, tilde_product_table, tilde_table
from .words import Word

SUPPORTED_PRIMES = (2, 3, 5, 7)

# j caps for the synthesis commands; term counts grow like the bound B_j
# (B_11 = 13144; P_11 has 13082 terms) so anything past this needs an
# explicit override
DESK_SCALE_JMAX = 12


class UsageError(ValueError):
    """Raised by handlers for invalid inputs; mapped to exit status 2."""


def _parse_admissible(text: str, p: int) -> Word:
    try:
        w = Word.parse(text, p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if not w.is_admissible:
        raise UsageError(f"not an admissible word for base {p}: {w}")
    return w


def _parse_monomial(text: str, p: int) -> Monomial:
    """Parse products like ``10``, ``10^2`` or ``10^2*110``."""
    powers: dict[Word, int] = {}
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            body, _, exp_text = part.partition("^")
            try:
                exp = int(exp_text)
            except ValueError as exc:
                raise UsageError(f"bad exponent in {part!r}") from exc
            if exp < 1:
                raise UsageError(f"exponent must be >= 1 in {part!r}")
        else:
            body, exp = part, 1
        w = _parse_admissible(body, p)
        powers[w] = powers.get(w, 0) + exp
    return Monomial.of(powers.items())


def _jobs(args: argparse.Namespace) -> int:
    jobs = args.jobs
    if jobs is None:
        try:
            jobs = int(os.environ.get("PPK_JOBS", "1"))
        except ValueError as exc:
            raise UsageError("PPK_JOBS must be an integer") from exc
    if jobs < 1:
        raise UsageError("jobs must be >= 1")
    return jobs


def _format_complex(z: complex | None) -> str:
    if z is None:
        return ""
    if abs(z.imag) < 1e-12:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _complex_json(z: complex | None) -> list[float] | None:
    return None if z is None else [z.real, z.imag]


def _emit_json(obj, stream) -> None:
    json.dump(obj, stream, indent=2)
    stream.write("\n")


# -- poly ------------------------------------------------------------------


def cmd_poly(args: argparse.Namespace, stream) -> int:
    if args.j < 0:
        raise UsageError("j must be >= 0")
    if args.cumulative and args.j < 1:
        raise UsageError("cumulative polynomials need j >= 1")
    if args.j > DESK_SCALE_JMAX and not args.force:
        raise UsageError(
            f"j = {args.j} exceeds the default cap {DESK_SCALE_JMAX}; "
            "pass --force to build anyway"
        )
    poly = (
        cumulative_polynomial(args.p, args.j)
        if args.cumulative
        else block_polynomial(args.p, args.j)
    )
    if args.format == "json":
        obj = poly.json_obj()
        obj["cumulative"] = bool(args.cumulative)
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["monomial", "coeff"])
        for mono, coeff in poly.sorted_terms():
            writer.writerow([str(mono), rational_to_str(coeff)])
    else:
        stream.write(poly.text() + "\n")
    return 0


# -- theta -----------------------------------------------------------------


def cmd_theta(args: argparse.Namespace, stream) -> int:
    if args.n < 0:
        raise UsageError("n must be >= 0")
    if args.j is not None:
        if args.j < 0:
            raise UsageError("j must be >= 0")
        count = theta(args.p, args.j, args.n)
        if args.format == "json":
            obj = {"p": args.p, "n": args.n, "j": args.j, "count": count}
            _emit_json(obj, stream)
        elif args.format == "csv":
            writer = csv.writer(stream)
            writer.writerow(["j", "count"])
            writer.writerow([args.j, count])
        else:
            stream.write(f"{count}\n")
        return 0
    poly = T_poly(args.p, args.n)
    counts = [int(c) for c in poly.coeffs]
    if args.format == "json":
        _emit_json({"p": args.p, "n": args.n, "coefficients": counts}, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["j", "count"])
        for j, c in enumerate(counts):
            writer.writerow([j, c])
    else:
        stream.write(poly.text() + "\n")
    return 0


# -- rw --------------------------------------------------------------------


def cmd_rw(args: argparse.Namespace, stream) -> int:
    w = _parse_admissible(args.word, args.p)
    rf = r_w_quotient(w)
    if args.format == "json":
        obj = {
            "p": args.p,
            "word": str(w),
            "numerator": [rational_to_str(c) for c in rf.num.coeffs],
            "denominator": [rational_to_str(c) for c in rf.den.coeffs],
        }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["part", "text"])
        writer.writerow(["numerator", rf.num.text()])
        writer.writerow(["denominator", rf.den.text()])
    else:
        stream.write(f"({rf.num.text()}) / ({rf.den.text()})\n")
    return 0


# -- coeffs ----------------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace, stream) -> int:
    mono = _parse_monomial(args.monomial, args.p)
    if mono.is_constant:
        raise UsageError("the constant monomial has no coefficient series")
    order = args.order if args.order is not None else max(args.j, mono.weight)
    if order < mono.weight:
        raise UsageError(
            f"order {order} is below the monomial weight {mono.weight}"
        )
    series = monomial_series(mono, order)
    total = None
    if args.sum:
        try:
            total = coefficient_sum(mono, tol=args.tol)
        except ConvergenceError as exc:
            raise UsageError(str(exc)) from exc
    if args.format == "json":
        obj = {
            "p": args.p,
            "monomial": str(mono),
            "order": order,
            "coefficients": [rational_to_str(c) for c in series.coeffs],
        }
        if total is not None:
            obj["sum"] = {
                "value": total.value,
                "error_bound": total.error_bound,
            }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["j", "coeff"])
        for j, c in enumerate(series.coeffs):
            writer.writerow([j, rational_to_str(c)])
        if total is not None:
            writer.writerow(["sum", repr(total.value)])
    else:
        for j, c in enumerate(series.coeffs):
            stream.write(f"{j}: {rational_to_str(c)}\n")
        if total is not None:
            stream.write(
                f"sum = {total.value!r} (error <= {total.error_bound!r})\n"
            )
    return 0


# -- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace, stream) -> int:
    from .oracle import equivalence_report

    if args.nmax < 1:
        raise UsageError("nmax must be >= 1")
    report = equivalence_report(args.p, args.nmax, jobs=_jobs(args))
    checks = [
        ("valuation triple", report.triple_ok, report.triple_counterexample),
        ("row counts", report.rows_ok, report.rows_counterexample),
        ("polynomial identity", report.poly_ok, report.poly_counterexample),
    ]
    if args.format == "json":
        obj = {
            "p": report.p,
            "n_max": report.n_max,
            "checks": [
                {
                    "name": name,
                    "ok": ok,
                    "counterexample": list(bad)
                    if isinstance(bad, tuple)
                    else bad,
                }
                for name, ok, bad in checks
            ],
            "ok": report.ok,
        }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["check", "ok", "counterexample"])
        for name, ok, bad in checks:
            writer.writerow([name, ok, "" if bad is None else str(bad)])
    else:
        for name, ok, bad in checks:
            line = f"{name}: {'ok' if ok else f'FAIL at {bad}'}"
            stream.write(line + "\n")
        stream.write(("ok" if report.ok else "FAIL") + "\n")
    return 0 if report.ok else 1


# -- terms -----------------------------------------------------------------


def cmd_terms(args: argparse.Namespace, stream) -> int:
    if args.jmax < 0:
        raise UsageError("jmax must be >= 0")
    if args.jmax > DESK_SCALE_JMAX and not args.force:
        raise UsageError(
            f"jmax = {args.jmax} exceeds the default cap {DESK_SCALE_JMAX}; "
            "pass --force to build anyway"
        )
    actual = [
        poly.term_count for poly in block_polynomials_up_to(args.p, args.jmax)
    ]
    bound = term_bound_series(args.p, args.jmax)
    if args.format == "json":
        obj = {
            "p": args.p,
            "j_max": args.jmax,
            "actual": actual,
            "bound": bound,
        }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["j", "actual", "bound"])
        for j, (n_j, b_j) in enumerate(zip(actual, bound)):
            writer.writerow([j, n_j, b_j])
    else:
        stream.write(",".join(str(v) for v in actual) + "\n")
        stream.write(",".join(str(v) for v in bound) + "\n")
    return 0


# -- classify --------------------------------------------------------------

CLASSIFY_HEADER = [
    "word",
    "class",
    "max_xi_modulus",
    "dominant_singularity",
    "coefficient_sum",
]


def _classify_row(profile: RootProfile) -> list[str]:
    return [
        str(profile.word),
        profile.classification,
        repr(profile.max_xi_modulus),
        _format_complex(profile.dominant_singularity),
        "" if profile.coefficient_sum is None else repr(profile.coefficient_sum),
    ]


def _profile_json(profile: RootProfile) -> dict:
    return {
        "word": str(profile.word),
        "class": profile.classification,
        "max_xi_modulus": profile.max_xi_modulus,
        "radius": profile.radius,
        "dominant_singularity": _complex_json(profile.dominant_singularity),
        "coefficient_sum": profile.coefficient_sum,
    }


def cmd_classify(args: argparse.Namespace, stream) -> int:
    if (args.word is None) == (args.maxlen is None):
        raise UsageError("pass exactly one of --word and --maxlen")
    if args.tol <= 0:
        raise UsageError("tol must be positive")
    if args.word is not None:
        w = _parse_admissible(args.word, args.p)
        profile = classify_word(w, tol=args.tol)
        if args.format == "json":
            _emit_json(_profile_json(profile), stream)
        elif args.format == "csv":
            writer = csv.writer(stream)
            writer.writerow(CLASSIFY_HEADER)
            writer.writerow(_classify_row(profile))
        else:
            stream.write(f"word: {profile.word}\n")
            stream.write(f"class: {profile.classification}\n")
            stream.write(f"max xi modulus: {profile.max_xi_modulus!r}\n")
            stream.write(
                "dominant singularity: "
                f"{_format_complex(profile.dominant_singularity)}\n"
            )
            if profile.coefficient_sum is not None:
                stream.write(
                    f"coefficient sum: {profile.coefficient_sum!r}\n"
                )
        return 0
    if args.maxlen < 2:
        raise UsageError("maxlen must be >= 2")
    report = scan_convergent_words(args.p, args.maxlen, tol=args.tol)
    if args.format == "json":
        obj = {
            "p": report.p,
            "max_len": report.max_len,
            "tol": report.tol,
            "checked": report.checked,
            "divergent": report.divergent_count,
            "families": {
                name: [str(w) for w in words]
                for name, words in sorted(report.families.items())
            },
            "exceptional": [str(w) for w in report.exceptional],
            "boundary": [str(w) for w in report.boundary],
            "profiles": [_profile_json(pr) for pr in report.profiles],
        }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(CLASSIFY_HEADER)
        for profile in report.profiles:
            writer.writerow(_classify_row(profile))
    else:
        def listing(label: str, words) -> str:
            joined = " ".join(str(w) for w in words)
            tail = f" {joined}" if joined else ""
            return f"{label} ({len(words)}):{tail}\n"

        stream.write(f"checked: {report.checked}\n")
        stream.write(f"divergent: {report.divergent_count}\n")
        for name, words in sorted(report.families.items()):
            stream.write(listing(f"family {name}", words))
        stream.write(listing("exceptional", report.exceptional))
        stream.write(listing("boundary", report.boundary))
    return 0


# -- tildetheta ------------------------------------------------------------


def cmd_tildetheta(args: argparse.Namespace, stream) -> int:
    if args.kmax < 0 or args.nmax < 0:
        raise UsageError("kmax and nmax must be >= 0")
    table = (
        tilde_product_table(args.p, args.kmax, args.nmax)
        if args.product
        else tilde_table(args.p, args.kmax, args.nmax)
    )
    if args.format == "json":
        obj = {
            "p": args.p,
            "k_max": args.kmax,
            "n_max": args.nmax,
            "product": bool(args.product),
            "rows": table,
        }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["k"] + [str(n) for n in range(args.nmax + 1)])
        for k, row in enumerate(table):
            writer.writerow([k] + row)
    else:
        for row in table:
            stream.write(",".join(str(v) for v in row) + "\n")
    return 0


# -- columns ---------------------------------------------------------------


def cmd_columns(args: argparse.Namespace, stream) -> int:
    from .oracle import column_scan

    if args.p != 2:
        raise UsageError("column densities are implemented for p = 2 only")
    if args.tmax < 0 or args.jmax < 0 or args.mmax < 1:
        raise UsageError("need tmax >= 0, jmax >= 0 and mmax >= 1")
    if args.tol <= 0:
        raise UsageError("tol must be positive")
    reports = column_scan(
        args.tmax, args.jmax, args.mmax, tol=args.tol, jobs=_jobs(args)
    )
    all_ok = all(r.ok for r in reports)
    worst = max(r.max_deviation for r in reports)
    if args.format == "json":
        obj = {
            "t_max": args.tmax,
            "j_max": args.jmax,
            "m_max": args.mmax,
            "tol": args.tol,
            "reports": [
                {
                    "t": r.t,
                    "rows": [
                        {
                            "j": row.j,
                            "count": row.count,
                            "estimate": row.estimate,
                            "prediction": row.prediction,
                            "deviation": row.deviation,
                        }
                        for row in r.rows
                    ],
                    "max_deviation": r.max_deviation,
                    "ok": r.ok,
                }
                for r in reports
            ],
            "max_deviation": worst,
            "ok": all_ok,
        }
        _emit_json(obj, stream)
    elif args.format == "csv":
        writer = csv.writer(stream)
        writer.writerow(
            ["t", "j", "count", "estimate", "prediction", "deviation"]
        )
        for r in reports:
            for row in r.rows:
                writer.writerow(
                    [
                        r.t,
                        row.j,
                        row.count,
                        repr(row.estimate),
                        repr(row.prediction),
                        repr(row.deviation),
                    ]
                )
    else:
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            stream.write(
                f"t={r.t}: max deviation {r.max_deviation:.3e} {status}\n"
            )
        stream.write(
            f"{'ok' if all_ok else 'FAIL'} (worst deviation {worst:.3e})\n"
        )
    return 0 if all_ok else 1


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppk",
        description=(
            "Exact counts of binomial coefficients by prime-power "
            "divisibility, with the polynomials that generate them."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--p",
        type=int,
        choices=SUPPORTED_PRIMES,
        default=2,
        help="prime base (default 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "poly",
        parents=[common],
        help="print the block-count polynomial for one level",
    )
    sp.add_argument("--j", type=int, required=True, help="level index")
    sp.add_argument(
        "--cumulative",
        action="store_true",
        help="print the cumulative polynomial (levels 0..j-1)",
    )
    sp.add_argument(
        "--force",
        action="store_true",
        help=f"allow j beyond the default cap {DESK_SCALE_JMAX}",
    )
    sp.set_defaults(handler=cmd_poly)

    sp = sub.add_parser(
        "theta",
        parents=[common],
        help="print exact-divisibility counts for one row",
    )
    sp.add_argument("--n", type=int, required=True, help="row index")
    sp.add_argument(
        "--j", type=int, default=None, help="single level (default: all)"
    )
    sp.set_defaults(handler=cmd_theta)

    sp = sub.add_parser(
        "rw",
        parents=[common],
        help="print the building-block rational function of a word",
    )
    sp.add_argument("--word", required=True, help="admissible word")
    sp.set_defaults(handler=cmd_rw)

    sp = sub.add_parser(
        "coeffs",
        parents=[common],
        help="print the coefficient series of a monomial",
    )
    sp.add_argument(
        "--monomial",
        required=True,
        help="monomial such as 10, 10^2 or 10^2*110",
    )
    sp.add_argument(
        "--j",
        type=int,
        default=DESK_SCALE_JMAX,
        help="highest coefficient index (default 12)",
    )
    sp.add_argument(
        "--order",
        type=int,
        default=None,
        help="series order override",
    )
    sp.add_argument(
        "--sum",
        action="store_true",
        help="also print the coefficient sum (convergent monomials only)",
    )
    sp.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="unit-circle tolerance for the convergence check",
    )
    sp.set_defaults(handler=cmd_coeffs)

    sp = sub.add_parser(
        "verify",
        parents=[common],
        help="run the independent oracles against the package",
    )
    sp.add_argument("--nmax", type=int, required=True, help="rows to check")
    sp.add_argument("--jobs", type=int, default=None, help="worker processes")
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser(
        "terms",
        parents=[common],
        help="compare term counts with the generating-function bound",
    )
    sp.add_argument("--jmax", type=int, required=True, help="highest level")
    sp.add_argument(
        "--force",
        action="store_true",
        help=f"allow jmax beyond the default cap {DESK_SCALE_JMAX}",
    )
    sp.set_defaults(handler=cmd_terms)

    sp = sub.add_parser(
        "classify",
        parents=[common],
        help="convergence classification of coefficient series",
    )
    sp.add_argument("--word", default=None, help="single admissible word")
    sp.add_argument(
        "--maxlen", type=int, default=None, help="scan all words up to length"
    )
    sp.add_argument(
        "--tol",
        type=float,
        default=1e-6,
        help="unit-circle tolerance (default 1e-6)",
    )
    sp.set_defaults(handler=cmd_classify)

    sp = sub.add_parser(
        "tildetheta",
        parents=[common],
        help="print the digit-sum reindexed count table",
    )
    sp.add_argument("--kmax", type=int, required=True, help="highest row")
    sp.add_argument("--nmax", type=int, required=True, help="highest column")
    sp.add_argument(
        "--product",
        action="store_true",
        help="use the closed infinite-product form instead of the recurrence",
    )
    sp.set_defaults(handler=cmd_tildetheta)

    sp = sub.add_parser(
        "columns",
        parents=[common],
        help="check column densities against polynomial predictions",
    )
    sp.add_argument("--tmax", type=int, required=True, help="highest column")
    sp.add_argument("--jmax", type=int, required=True, help="highest level")
    sp.add_argument(
        "--mmax", type=int, required=True, help="sample rows per column"
    )
    sp.add_argument(
        "--tol",
        type=float,
        default=5e-3,
        help="allowed deviation (default 5e-3)",
    )
    sp.add_argument("--jobs", type=int, default=None, help="worker processes")
    sp.set_defaults(handler=cmd_columns)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
