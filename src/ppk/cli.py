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
import re
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
from .ratcore import canonical_rows, quotient_text, ratio_strs, row_text
from .synth import (
    Monomial,
    _monomial_offset,
    _quotient_rows,
    block_polynomial,
    block_polynomials_up_to,
    cumulative_polynomial,
)
from .theta import _row_coeffs, theta, tilde_table
from .words import Word

SUPPORTED_PRIMES = (2, 3, 5, 7)

DESK_SCALE_JMAX = 12

# The highest synthesis level built without --force: the largest
# j <= DESK_SCALE_JMAX whose term bound B_j stays within B_12 = 30691 at p=2,
# the load that p=2 already allows (P_11 has 13082 terms at p=2, B_11 = 13144)
CAPS = {2: 12, 3: 6, 5: 4, 7: 3}
CAPS_TEXT = ", ".join(map(str, CAPS.values())) + " at p = " + ", ".join(map(str, CAPS))

# size limits, so that no input allocates without bound; at the limits, on a
# 2-core box, coeffs 1010 took 2.6 s and 49 MB, tildetheta 2.4 s and 191 MB,
# and columns 3.7 s and 69 MB (it holds all 2^jmax words of its top level,
# and each step up doubles both).  classify and verify are bounded by the
# words they hold, which grow p-fold per unit of maxlen or base-p digit of
# nmax: the largest admitted took 6.7 s and 73 MB (classify --p 2 --maxlen
# 14 --format json; its text scan, which finds no float root, 2.7 s and
# 20 MB), and verify --p 2 --nmax 32768 23 s and 160 MB (--p 7 --nmax
# 16807, 6.2 s and 233 MB); 100,000 columns report rows took up to 10 s
# and 118 MB
MAX_ORDER = 4000
MAX_CELLS = 10_000_000
MAX_COLUMN_JMAX = 16
MAX_CLASSIFY_WORDS = 10_000
MAX_VERIFY_WORDS = 20_000
MAX_COLUMN_ROWS = 100_000


class UsageError(ValueError):
    """Raised by handlers for invalid inputs; mapped to exit status 2."""


# the longest rejected input that a message echoes whole
_SHOWN = 40


def _named(text: str) -> str:
    """``text`` if it is short, else its first characters and its length."""
    if len(text) <= _SHOWN:
        return text
    return f"{text[:_SHOWN // 2]}... ({len(text)} characters)"


def _parse_admissible(text: str, p: int) -> Word:
    try:
        w = Word.parse(text, p)
    except ValueError as exc:
        # Word's message echoes every digit, so a long word is only named
        if len(text) > _SHOWN:
            bad = f"not a word over digits 0..{p - 1}: {_named(text)}"
            raise UsageError(bad) from exc
        raise UsageError(str(exc)) from exc
    if not w.is_admissible:
        raise UsageError(f"not an admissible word for base {p}: {_named(str(w))}")
    return w


def _parse_monomial(text: str, p: int) -> Monomial:
    """Parse products like ``10``, ``10^2`` or ``10^2*110``."""
    powers: dict[Word, int] = {}
    for part in text.split("*"):
        part = part.strip()
        if "^" in part:
            body, _, exp_text = part.partition("^")
            try:
                exp = _int_option(exp_text, f"bad exponent in {_named(part)!r}")
            except argparse.ArgumentTypeError as exc:
                raise UsageError(str(exc)) from exc
            if exp < 1:
                raise UsageError(f"exponent must be >= 1 in {_named(part)!r}")
        else:
            body, exp = part, 1
        w = _parse_admissible(body, p)
        powers[w] = powers.get(w, 0) + exp
    return Monomial.of(powers.items())


def _int_option(text: str, invalid: str = "") -> int:
    """``int`` for every integer option and exponent, but a decimal too long
    for this Python's int parsing is refused by its digit count, without
    echoing it; any other bad text is refused as ``invalid``, by default
    argparse's message."""
    try:
        return int(text)
    except ValueError:
        pass
    # a decimal literal as int reads it, its digits in group 1
    literal = re.fullmatch(r"\s*[+-]?(\d+(?:_\d+)*)\s*", text)
    digits = len(literal[1].replace("_", "")) if literal else 0
    # Python 3.10.0-3.10.6 has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise argparse.ArgumentTypeError(
            f"value has {digits} digits, above this Python's limit of "
            f"{limit} (sys.set_int_max_str_digits)"
        )
    raise argparse.ArgumentTypeError(
        invalid or f"invalid int value: {_named(text)!r}"
    )


def _jobs(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError("jobs must be >= 1")
    return args.jobs


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


def _check_size(name: str, value: int, limit: int) -> None:
    """Refuse a size above ``limit``; a value of more than ``_SHOWN`` digits
    is not echoed (``str`` of an int past Python's digit limit raises)."""
    if value > limit:
        shown = f" {value}" if value < 10 ** _SHOWN else ""
        raise UsageError(f"{name}{shown} is above the limit of {limit}")


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
    counts = _row_coeffs(args.p, args.n)
    return Output(
        json=_json_of(lambda: {"p": args.p, "n": args.n, "coefficients": counts}),
        csv=lambda: [["j", "count"], *enumerate(counts)],
        text=lambda: [row_text(counts)],
    )


# -- rw --------------------------------------------------------------------


def cmd_rw(args: argparse.Namespace) -> Output:
    w = _parse_admissible(args.word, args.p)
    num, den = canonical_rows(*_quotient_rows(w))
    return Output(
        json=_json_of(lambda: {
            "p": args.p,
            "word": str(w),
            "numerator": ratio_strs(num),
            "denominator": ratio_strs(den),
        }),
        csv=lambda: [
            ["part", "text"],
            ["numerator", row_text(num)],
            ["denominator", row_text(den)],
        ],
        text=lambda: [quotient_text(num, den)],
    )


# -- coeffs ----------------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace) -> Output:
    if args.j < 0:
        raise UsageError("j must be >= 0")
    mono = _parse_monomial(args.monomial, args.p)
    tol = _unit_tol(args)
    order = max(args.j, mono.weight)
    _check_size("series order", order, MAX_ORDER)
    weight, den, nums = _monomial_offset(mono, order)
    row = [0] * weight + nums + [0] * (order + 1 - weight - len(nums))
    # Python's digit limit on str of an int guards the parsing of untrusted
    # text, not ppk's own coefficients, so it is lifted while they are
    # written (Python 3.10.0-3.10.6 has none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        coeffs = ratio_strs(row, den)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
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
            "coefficients": coeffs,
        }
        if total is not None:
            obj["sum"] = {
                "value": total.value,
                "error_bound": total.error_bound,
            }
        return obj

    def as_csv():
        yield ["j", "coeff"]
        yield from enumerate(coeffs)
        if total is not None:
            yield ["sum", repr(total.value)]

    def as_text():
        for j, c in enumerate(coeffs):
            yield f"{j}: {c}"
        if total is not None:
            yield f"sum = {total.value!r} (error <= {total.error_bound!r})"

    return Output(_json_of(as_json), as_csv, as_text)


# -- verify ----------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> Output:
    from .oracle import equivalence_report

    if args.nmax < 1:
        raise UsageError("nmax must be >= 1")
    # the scan builds P_0..P_J, J the highest valuation below nmax, and so
    # the log r_w series of every word of level J; p^J < nmax
    top = 1
    while top * args.p < args.nmax:
        top *= args.p
    words = (args.p - 1) * (top - 1)
    _check_size("level words (p - 1)(p^J - 1), p^J < nmax,", words, MAX_VERIFY_WORDS)
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
    # the count is at least 2^(maxlen - 1) - 1, so past length 4 _SHOWN it
    # has more than _SHOWN digits at every p, and is neither shown nor admitted
    length = min(args.maxlen, 4 * _SHOWN)
    words = (args.p - 1) * (args.p ** (length - 1) - 1)
    _check_size("word count (p - 1)(p^(maxlen - 1) - 1)", words, MAX_CLASSIFY_WORDS)
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
    cells = (args.kmax + 1) * (args.nmax + 1)
    _check_size("table size (kmax + 1)(nmax + 1)", cells, MAX_CELLS)
    table = tilde_table(args.p, args.kmax, args.nmax)
    return Output(
        json=_json_of(lambda: {
            "p": args.p,
            "k_max": args.kmax,
            "n_max": args.nmax,
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
    _check_size("jmax", args.jmax, MAX_COLUMN_JMAX)
    rows = (args.tmax + 1) * (args.jmax + 1)
    _check_size("report rows (tmax + 1)(jmax + 1)", rows, MAX_COLUMN_ROWS)
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
        type=_int_option,
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
    sp.add_argument("--j", type=_int_option, required=True, help="level index")
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
    sp.add_argument("--n", type=_int_option, required=True, help="row index")
    sp.add_argument(
        "--j", type=_int_option, default=None, help="single level (default: all)"
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
        type=_int_option,
        default=DESK_SCALE_JMAX,
        help="highest coefficient index, at least the weight (default 12)",
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
    sp.add_argument("--nmax", type=_int_option, required=True, help="rows to check")
    sp.add_argument("--jobs", type=_int_option, default=1, help="worker processes")

    sp = command(
        "terms",
        cmd_terms,
        "compare term counts with the generating-function bound",
    )
    sp.add_argument("--jmax", type=_int_option, required=True, help="highest level")
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
        "--maxlen", type=_int_option, default=None, help="scan all words up to length"
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
    sp.add_argument("--kmax", type=_int_option, required=True, help="highest row")
    sp.add_argument("--nmax", type=_int_option, required=True, help="highest column")

    sp = command(
        "columns",
        cmd_columns,
        "check column densities against polynomial predictions",
    )
    sp.add_argument("--tmax", type=_int_option, required=True, help="highest column")
    sp.add_argument("--jmax", type=_int_option, required=True, help="highest level")
    sp.add_argument(
        "--mmax", type=_int_option, required=True, help="sample rows per column"
    )
    sp.add_argument(
        "--tol",
        type=float,
        default=5e-3,
        help="allowed deviation (default 5e-3)",
    )
    sp.add_argument("--jobs", type=_int_option, default=1, help="worker processes")

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
