"""Command line surface for the package.

Subcommands cover polynomial synthesis (poly, terms), row counting (theta,
tildetheta), the building-block rational functions and their coefficient
series (rw, coeffs), convergence classification (classify), and the two
verification drivers (verify, columns).  Each handler validates its input,
computes, and returns an ``Output``; ``main`` prints it in the chosen format.
Output is deterministic for a fixed set of flags: every collection is emitted
in its canonical order, floats are printed with repr, and JSON objects use a
fixed key layout.

Exit status: 0 on success, 1 when a verification run finds a counterexample,
2 when the input is rejected (unknown words, unsupported primes,
out-of-range bounds), and 141 (128 + SIGPIPE) when the reader closes stdout
before the output is written, as ``| head`` does; that case prints nothing
on stderr.  Any other error is a fault of the program: it ends with a
traceback and status 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence, TextIO

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

DESK_SCALE_JMAX = 12

# The highest synthesis level built without --force: the largest
# j <= DESK_SCALE_JMAX whose term bound B_j stays within B_12 = 30691 at p=2,
# the load that p=2 already allows (P_11 has 13082 terms at p=2, B_11 = 13144)
CAPS = {2: 12, 3: 6, 5: 4, 7: 3}
CAPS_TEXT = ", ".join(map(str, CAPS.values())) + " at p = " + ", ".join(map(str, CAPS))


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


def _tol(args: argparse.Namespace) -> float:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise UsageError("tol must be positive and finite")
    return args.tol


def _unit_tol(args: argparse.Namespace) -> float:
    """The unit-circle band of ``coeffs`` and ``classify``."""
    tol = _tol(args)
    if tol >= 1:
        raise UsageError("tol must be below 1, or no word can classify convergent")
    return tol


def _check_cap(name: str, value: int, p: int, force: bool) -> None:
    cap = CAPS[p]
    if value > cap and not force:
        raise UsageError(
            f"{name} = {value} exceeds the default cap {cap}; "
            "pass --force to build anyway"
        )


def _format_complex(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _complex_json(z: complex) -> list[float]:
    return [z.real, z.imag]


# -- output ----------------------------------------------------------------


@dataclass(frozen=True)
class Output:
    """What a handler prints, one builder per format, and its exit status.

    ``json`` returns the JSON text in chunks, without the final newline,
    ``csv`` the rows (header first) and ``text`` the lines without newlines.
    Only the builder of the printed format is called, so no run pays for
    another format.  A handler raises ``UsageError`` before it returns,
    never from a builder, so rejected input prints nothing on stdout.
    """

    json: Callable[[], Iterable[str]]
    csv: Callable[[], Iterable[Sequence[object]]]
    text: Callable[[], Iterable[str]]
    status: int = 0


def _json_of(build: Callable[[], object]) -> Callable[[], Iterable[str]]:
    """The JSON builder for an object: the chunks that ``json.dump`` writes
    with ``indent=2``."""
    return lambda: json.JSONEncoder(indent=2).iterencode(build())


def _write(out: Output, fmt: str, stream: TextIO) -> int:
    if fmt == "json":
        for chunk in out.json():
            stream.write(chunk)
        stream.write("\n")
    elif fmt == "csv":
        csv.writer(stream).writerows(out.csv())
    else:
        for line in out.text():
            stream.write(line + "\n")
    return out.status


# -- poly ------------------------------------------------------------------


def cmd_poly(args: argparse.Namespace) -> Output:
    if args.j < 0:
        raise UsageError("j must be >= 0")
    if args.cumulative and args.j < 1:
        raise UsageError("cumulative polynomials need j >= 1")
    _check_cap("j", args.j, args.p, args.force)
    poly = (
        cumulative_polynomial(args.p, args.j)
        if args.cumulative
        else block_polynomial(args.p, args.j)
    )

    def as_csv():
        yield ["monomial", "coeff"]
        yield from poly.csv_rows()

    return Output(
        json=lambda: poly.json_chunks(cumulative=args.cumulative),
        csv=as_csv,
        text=lambda: [poly.text()],
    )


# -- theta -----------------------------------------------------------------


def cmd_theta(args: argparse.Namespace) -> Output:
    if args.n < 0:
        raise UsageError("n must be >= 0")
    if args.j is not None:
        if args.j < 0:
            raise UsageError("j must be >= 0")
        count = theta(args.p, args.j, args.n)
        return Output(
            json=_json_of(lambda: {
                "p": args.p,
                "n": args.n,
                "j": args.j,
                "count": count,
            }),
            csv=lambda: [["j", "count"], [args.j, count]],
            text=lambda: [str(count)],
        )
    poly = T_poly(args.p, args.n)
    counts = [int(c) for c in poly.coeffs]
    return Output(
        json=_json_of(lambda: {"p": args.p, "n": args.n, "coefficients": counts}),
        csv=lambda: [["j", "count"], *enumerate(counts)],
        text=lambda: [poly.text()],
    )


# -- rw --------------------------------------------------------------------


def cmd_rw(args: argparse.Namespace) -> Output:
    w = _parse_admissible(args.word, args.p)
    rf = r_w_quotient(w)
    return Output(
        json=_json_of(lambda: {
            "p": args.p,
            "word": str(w),
            "numerator": [rational_to_str(c) for c in rf.num.coeffs],
            "denominator": [rational_to_str(c) for c in rf.den.coeffs],
        }),
        csv=lambda: [
            ["part", "text"],
            ["numerator", rf.num.text()],
            ["denominator", rf.den.text()],
        ],
        text=lambda: [str(rf)],
    )


# -- coeffs ----------------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace) -> Output:
    mono = _parse_monomial(args.monomial, args.p)
    tol = _unit_tol(args)
    order = args.order if args.order is not None else max(args.j, mono.weight)
    if order < mono.weight:
        raise UsageError(
            f"order {order} is below the monomial weight {mono.weight}"
        )
    series = monomial_series(mono, order)
    total = None
    if args.sum:
        try:
            total = coefficient_sum(mono, tol=tol)
        except ConvergenceError as exc:
            raise UsageError(str(exc)) from exc

    def as_json() -> dict:
        obj = {
            "p": args.p,
            "monomial": str(mono),
            "order": order,
            "coefficients": series.to_json(),
        }
        if total is not None:
            obj["sum"] = {
                "value": total.value,
                "error_bound": total.error_bound,
            }
        return obj

    def as_csv():
        yield ["j", "coeff"]
        for j, c in enumerate(series.coeffs):
            yield [j, rational_to_str(c)]
        if total is not None:
            yield ["sum", repr(total.value)]

    def as_text():
        for j, c in enumerate(series.coeffs):
            yield f"{j}: {rational_to_str(c)}"
        if total is not None:
            yield f"sum = {total.value!r} (error <= {total.error_bound!r})"

    return Output(_json_of(as_json), as_csv, as_text)


# -- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> Output:
    from .oracle import equivalence_report

    if args.nmax < 1:
        raise UsageError("nmax must be >= 1")
    report = equivalence_report(args.p, args.nmax, jobs=_jobs(args))
    checks = [
        ("valuation triple", report.triple_ok, report.triple_counterexample),
        ("row counts", report.rows_ok, report.rows_counterexample),
        ("polynomial identity", report.poly_ok, report.poly_counterexample),
    ]

    def as_text():
        for name, ok, bad in checks:
            yield f"{name}: {'ok' if ok else f'FAIL at {bad}'}"
        yield "ok" if report.ok else "FAIL"

    return Output(
        json=_json_of(lambda: {
            "p": report.p,
            "n_max": report.n_max,
            "checks": [
                {"name": name, "ok": ok, "counterexample": bad}
                for name, ok, bad in checks
            ],
            "ok": report.ok,
        }),
        csv=lambda: [
            ["check", "ok", "counterexample"],
            *(
                [name, ok, "" if bad is None else bad]
                for name, ok, bad in checks
            ),
        ],
        text=as_text,
        status=0 if report.ok else 1,
    )


# -- terms -----------------------------------------------------------------


def cmd_terms(args: argparse.Namespace) -> Output:
    if args.jmax < 0:
        raise UsageError("jmax must be >= 0")
    _check_cap("jmax", args.jmax, args.p, args.force)
    actual = [
        poly.term_count for poly in block_polynomials_up_to(args.p, args.jmax)
    ]
    bound = term_bound_series(args.p, args.jmax)
    return Output(
        json=_json_of(lambda: {
            "p": args.p,
            "j_max": args.jmax,
            "actual": actual,
            "bound": bound,
        }),
        csv=lambda: [
            ["j", "actual", "bound"],
            *zip(range(args.jmax + 1), actual, bound),
        ],
        text=lambda: [",".join(map(str, actual)), ",".join(map(str, bound))],
    )


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


def _profile_text(profile: RootProfile):
    yield f"word: {profile.word}"
    yield f"class: {profile.classification}"
    yield f"max xi modulus: {profile.max_xi_modulus!r}"
    yield "dominant singularity: " + _format_complex(
        profile.dominant_singularity
    )
    if profile.coefficient_sum is not None:
        yield f"coefficient sum: {profile.coefficient_sum!r}"


def _listing(label: str, words) -> str:
    joined = " ".join(str(w) for w in words)
    tail = f" {joined}" if joined else ""
    return f"{label} ({len(words)}):{tail}"


def cmd_classify(args: argparse.Namespace) -> Output:
    if (args.word is None) == (args.maxlen is None):
        raise UsageError("pass exactly one of --word and --maxlen")
    tol = _unit_tol(args)
    if args.word is not None:
        w = _parse_admissible(args.word, args.p)
        profile = classify_word(w, tol=tol)
        return Output(
            json=_json_of(lambda: _profile_json(profile)),
            csv=lambda: [CLASSIFY_HEADER, _classify_row(profile)],
            text=lambda: _profile_text(profile),
        )
    if args.maxlen < 2:
        raise UsageError("maxlen must be >= 2")
    report = scan_convergent_words(args.p, args.maxlen, tol=tol)
    families = sorted(report.families.items())

    def as_text():
        yield f"checked: {report.checked}"
        yield f"divergent: {report.divergent_count}"
        for name, words in families:
            yield _listing(f"family {name}", words)
        yield _listing("exceptional", report.exceptional)
        yield _listing("boundary", report.boundary)

    return Output(
        json=_json_of(lambda: {
            "p": report.p,
            "max_len": report.max_len,
            "tol": report.tol,
            "checked": report.checked,
            "divergent": report.divergent_count,
            "families": {
                name: [str(w) for w in words] for name, words in families
            },
            "exceptional": [str(w) for w in report.exceptional],
            "boundary": [str(w) for w in report.boundary],
            "profiles": [_profile_json(pr) for pr in report.profiles],
        }),
        csv=lambda: [CLASSIFY_HEADER, *map(_classify_row, report.profiles)],
        text=as_text,
    )


# -- tildetheta ------------------------------------------------------------


def cmd_tildetheta(args: argparse.Namespace) -> Output:
    if args.kmax < 0 or args.nmax < 0:
        raise UsageError("kmax and nmax must be >= 0")
    table = (
        tilde_product_table(args.p, args.kmax, args.nmax)
        if args.product
        else tilde_table(args.p, args.kmax, args.nmax)
    )
    return Output(
        json=_json_of(lambda: {
            "p": args.p,
            "k_max": args.kmax,
            "n_max": args.nmax,
            "product": args.product,
            "rows": table,
        }),
        csv=lambda: [
            ["k", *range(args.nmax + 1)],
            *([k, *row] for k, row in enumerate(table)),
        ],
        text=lambda: [",".join(map(str, row)) for row in table],
    )


# -- columns ---------------------------------------------------------------


def cmd_columns(args: argparse.Namespace) -> Output:
    from .oracle import column_scan

    if args.p != 2:
        raise UsageError("column densities are implemented for p = 2 only")
    if args.tmax < 0 or args.jmax < 0 or args.mmax < 1:
        raise UsageError("need tmax >= 0, jmax >= 0 and mmax >= 1")
    tol = _tol(args)
    reports = column_scan(
        args.tmax, args.jmax, args.mmax, tol=tol, jobs=_jobs(args)
    )
    all_ok = all(r.ok for r in reports)
    worst = max(r.max_deviation for r in reports)

    def as_csv():
        yield ["t", "j", "count", "estimate", "prediction", "deviation"]
        for r in reports:
            for row in r.rows:
                floats = (row.estimate, row.prediction, row.deviation)
                yield [r.t, row.j, row.count, *map(repr, floats)]

    def as_text():
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            yield f"t={r.t}: max deviation {r.max_deviation:.3e} {status}"
        yield f"{'ok' if all_ok else 'FAIL'} (worst deviation {worst:.3e})"

    return Output(
        json=_json_of(lambda: {
            "t_max": args.tmax,
            "j_max": args.jmax,
            "m_max": args.mmax,
            "tol": tol,
            "reports": [
                {
                    "t": r.t,
                    # the row fields are the schema's row keys, in order
                    "rows": [asdict(row) for row in r.rows],
                    "max_deviation": r.max_deviation,
                    "ok": r.ok,
                }
                for r in reports
            ],
            "max_deviation": worst,
            "ok": all_ok,
        }),
        csv=as_csv,
        text=as_text,
        status=0 if all_ok else 1,
    )


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

    def command(name, handler, help):
        sp = sub.add_parser(name, parents=[common], help=help)
        sp.set_defaults(handler=handler)
        return sp

    sp = command(
        "poly", cmd_poly, "print the block-count polynomial for one level"
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
        help=f"allow j beyond the default cap ({CAPS_TEXT})",
    )

    sp = command(
        "theta", cmd_theta, "print exact-divisibility counts for one row"
    )
    sp.add_argument("--n", type=int, required=True, help="row index")
    sp.add_argument(
        "--j", type=int, default=None, help="single level (default: all)"
    )

    sp = command(
        "rw", cmd_rw, "print the building-block rational function of a word"
    )
    sp.add_argument("--word", required=True, help="admissible word")

    sp = command(
        "coeffs", cmd_coeffs, "print the coefficient series of a monomial"
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

    sp = command(
        "verify", cmd_verify, "run the independent oracles against the package"
    )
    sp.add_argument("--nmax", type=int, required=True, help="rows to check")
    sp.add_argument("--jobs", type=int, default=None, help="worker processes")

    sp = command(
        "terms",
        cmd_terms,
        "compare term counts with the generating-function bound",
    )
    sp.add_argument("--jmax", type=int, required=True, help="highest level")
    sp.add_argument(
        "--force",
        action="store_true",
        help=f"allow jmax beyond the default cap ({CAPS_TEXT})",
    )

    sp = command(
        "classify",
        cmd_classify,
        "convergence classification of coefficient series",
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

    sp = command(
        "tildetheta",
        cmd_tildetheta,
        "print the digit-sum reindexed count table",
    )
    sp.add_argument("--kmax", type=int, required=True, help="highest row")
    sp.add_argument("--nmax", type=int, required=True, help="highest column")
    sp.add_argument(
        "--product",
        action="store_true",
        help="use the closed infinite-product form instead of the recurrence",
    )

    sp = command(
        "columns",
        cmd_columns,
        "check column densities against polynomial predictions",
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

    return parser


def main(argv: list[str] | None = None) -> int:
    # before numpy loads: ppk threads no BLAS call, and OpenBLAS's thread
    # pool costs start-up time; a value the user set still wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        status = _write(out, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: what is left in the buffer goes to devnull, so
        # the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return status


if __name__ == "__main__":
    raise SystemExit(main())
