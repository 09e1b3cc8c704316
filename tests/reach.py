"""List the functions in ``src/ppk`` that no command line reaches.

Runs a fixed set of ``ppk`` command lines in this process under
``sys.setprofile``: every command, every output format, and a few rejected
inputs.  Then prints each function defined under ``src/ppk`` that none of
them called, as ``path:line qualname``, and a count.  A function listed here
runs only from the library API or the tests, so it stays in ``src/`` only as
a reference that a check reads or as a paper result.

Run from anywhere, with no arguments:

    python3 tests/reach.py

This file is a script, not a test module: pytest does not collect it.
The hook sees only this process.  ``verify`` and ``columns`` run also with
``--jobs 2``, so the parent's side of a forked scan counts: ``_spread`` forks
through ``_fork_run`` and reaps the child.  Only the child's branch of
``_fork_run`` stays out of sight, and the scan forks only on a machine with
at least 2 CPUs this process may use (``oracle._runs`` caps the runs by
them); with one job the scans run the same functions in this process.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ppk  # noqa: E402
from ppk.cli import main  # noqa: E402

FORMATS = ("text", "json", "csv")

COMMANDS = [
    *(["poly", "--j", "4", "--format", f] for f in FORMATS),
    *(["poly", "--j", "4", "--cumulative", "--format", f] for f in FORMATS),
    ["poly", "--p", "3", "--j", "3"],
    *(["terms", "--jmax", "5", "--format", f] for f in FORMATS),
    *(["theta", "--n", "100", "--format", f] for f in FORMATS),
    ["theta", "--n", "100", "--j", "2", "--format", "json"],
    *(["tildetheta", "--kmax", "3", "--nmax", "5", "--format", f] for f in FORMATS),
    *(["rw", "--word", "110", "--format", f] for f in FORMATS),
    *(["coeffs", "--monomial", "10^2*110", "--format", f] for f in FORMATS),
    ["coeffs", "--monomial", "10", "--sum", "--format", "json"],
    *(["classify", "--word", "100", "--format", f] for f in FORMATS),
    *(["classify", "--maxlen", "5", "--format", f] for f in FORMATS),
    *(["verify", "--nmax", "64", "--format", f] for f in FORMATS),
    ["verify", "--p", "3", "--nmax", "27"],
    ["verify", "--nmax", "64", "--jobs", "2"],
    *(["columns", "--tmax", "4", "--jmax", "3", "--mmax", "256", "--format", f]
      for f in FORMATS),
    ["columns", "--tmax", "4", "--jmax", "3", "--mmax", "256", "--jobs", "2"],
    # rejected inputs: exit 2
    ["rw", "--word", "11"],
    ["coeffs", "--monomial", "10^x"],
    ["poly", "--j", "x"],
]


def functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualname for every function, method and
    nested function in the package; class bodies, which run on import,
    lambdas and comprehensions are left out."""
    found = {}
    for info in pkgutil.iter_modules(ppk.__path__, "ppk."):
        path = importlib.import_module(info.name).__file__
        todo = [compile(Path(path).read_text(), path, "exec")]
        while todo:
            code = todo.pop()
            todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            function = code.co_flags & inspect.CO_OPTIMIZED
            if function and not code.co_name.startswith("<"):
                key = code.co_filename, code.co_firstlineno, code.co_name
                found[key] = getattr(code, "co_qualname", code.co_name)
    return found


def reached() -> set[tuple[str, int, str]]:
    """(file, first line, name) of every Python function that ``COMMANDS``
    called."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sink = io.StringIO()
    for argv in COMMANDS:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            sys.setprofile(hook)
            try:
                main(argv)
            except SystemExit:  # argparse's rejections
                pass
            finally:
                sys.setprofile(None)
        sink.seek(0)
        sink.truncate()
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}


def report() -> None:
    everything = functions()
    hit = reached()
    missed = sorted(key for key in everything if key not in hit)
    for path, line, name in missed:
        rel = Path(path).resolve().relative_to(ROOT)
        print(f"{rel}:{line} {everything[path, line, name]}")
    print(
        f"{len(everything) - len(missed)} of {len(everything)} functions in "
        f"src/ppk reached by {len(COMMANDS)} command lines; "
        f"{len(missed)} not reached"
    )


if __name__ == "__main__":
    report()
