"""Run one traced ppk invocation: ``boot.py SPANS_OUT [ppk arguments...]``.

Wraps the layers with ``tracer.install`` from outside, then calls
``ppk.cli.main`` exactly as the ``ppk`` entry point does and writes the
spans to SPANS_OUT when it returns.  Stdout is ppk's own, byte for byte.
"""

import sys

import tracer


def boot(argv):
    spans_out, ppk_args = argv[0], argv[1:]
    rec = tracer.install()
    try:
        rc = sys.modules["ppk.cli"].main(ppk_args)
    finally:
        sys.stdout.flush()
        rec.dump(spans_out)
    return rc


if __name__ == "__main__":
    raise SystemExit(boot(sys.argv[1:]))
