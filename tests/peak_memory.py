"""Report the traced peak memory of simulate, certify and oracle-compare on
one fixed continuity scenario of 801 grid times by 240 nodes.

    PYTHONPATH=<checkout>/src python tests/peak_memory.py

Each mode runs once through ``transportlab.cli.main`` under ``tracemalloc``,
after the package is imported, and prints one line: the mode and the peak of
traced Python allocations in MB (10^6 bytes) above what was allocated when
tracing started.  Artifacts go to a temporary directory that is removed
afterwards.  Run it once per checkout to compare two of them.
"""

import contextlib
import io
import os
import sys
import tempfile
import tracemalloc

SCENARIO = """\
problem = continuity
v = "1 + 0.1*cos(pi*x)"
rho0 = "1.1 + 0.2*x^2*(3 - 2*x)"
b = "0.0953101798043249 + 0.05*sin(t)^3"
nx = 240
dt = 0.001
horizon = 0.8
estimates = E2.4, E2.5
p = 2, inf
mu = 0.3
"""

MODES = ("simulate", "certify", "oracle-compare")


def traced_peak_mb(main, argv) -> float:
    """Peak traced allocation of ``main(argv)``, in MB; stdout is swallowed."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if status != 0:
        raise SystemExit(f"{argv[3]} exited {status}")
    return (peak - base) / 1e6


def main() -> int:
    from transportlab import cli

    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "peak.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(SCENARIO)
        for mode in MODES:
            peak = traced_peak_mb(cli.main, ["run", path, "--mode", mode, "--out", out])
            print(f"{mode}: {peak:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
