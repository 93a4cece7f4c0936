"""One benchmark iteration in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON T0

T0 is the parent's time.monotonic() just before it started this process, so
set-up time runs from process start until `sphereflow.cli` is imported. The
spec names the source tree, the `sphereflow` command lines to run through
`cli.main` back to back, where to write the result, and, for a traced
iteration, where to write the spans.
"""

import sys
import time

T0 = float(sys.argv[2])

import json  # noqa: E402

with open(sys.argv[1], "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
sys.path.insert(0, SPEC["src"])

from sphereflow import cli  # noqa: E402

SETUP_S = time.monotonic() - T0

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def openblas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and SciPy load."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads SciPy's OpenBLAS)

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    out = {}
    for pkg in ("numpy", "scipy"):
        for lib in glob.glob(os.path.join(site, pkg + ".libs", "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    out[pkg] = fn()
                    break
    return out


def main() -> None:
    tracer = None
    if SPEC.get("spans"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    for argv in SPEC["commands"]:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            error = None
        except Exception:  # one failed command is recorded, the sequence goes on
            rc, error = -1, traceback.format_exc()
        seconds = time.perf_counter() - start
        commands.append({"argv": argv, "rc": rc, "seconds": seconds,
                         "stdout": buf.getvalue(), "error": error})
    if tracer is not None:
        tracer.dump(SPEC["spans"])
    result = {"setup_s": SETUP_S, "commands": commands,
              "openblas_threads": openblas_threads()}
    with open(SPEC["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


main()
