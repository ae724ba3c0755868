"""Write the artifacts of every CLI mode for the scenario sources of the tests,
and report how far two such sets of artifacts are apart.

    PYTHONPATH=<checkout>/src python tests/cli_artifacts.py OUT
    python tests/cli_artifacts.py compare BASE HEAD

The first form runs simulate, certify, oracle-compare, experiments and sweep
(seed 7) on each ``*_SRC`` scenario of ``tests/test_cli.py`` and on the
README's scenario file, with whichever ``transportlab`` the path imports.
Each run's artifacts land in ``OUT/<source>/<mode>/`` next to
``<mode>.out``, its exit status and stdout.  For each transport and
continuity source, ``OUT/<source>/points.out`` holds ``solve_point`` of the
problem the CLI solves (the log state, for continuity) on the scenario's
grid at a fixed lattice of (t, x) on both sides of the separatrix: one line
``t x value`` per point, the value's ``repr`` or the error it raised; no CLI
mode calls ``solve_point``.  Run it once per checkout.  The sources are read
from the files, not imported, so a test module of one checkout can drive
another checkout's package.

The second form prints, for each artifact that differs between the two
directories, how many of its values differ (CSV cells, JSON leaves, lines of
a ``.out``), the largest absolute and relative change among the numeric
ones, and every exit status or verdict (``passed``) that differs.
"""

import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
MODES = ("simulate", "certify", "oracle-compare", "experiments", "sweep")
# solve_point queries: fractions of the horizon, and positions
POINT_TIMES = (0.25, 0.5, 0.75, 1.0)
POINT_XS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def sources() -> dict:
    tree = ast.parse((TESTS / "test_cli.py").read_text())
    found = {node.targets[0].id[:-4].lower(): node.value.value
             for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id.endswith("_SRC")}
    (found["readme"],) = re.findall(r"```text\n(.*?)```",
                                    (TESTS.parent / "README.md").read_text(), re.S)
    return found


def write_artifacts(out: str):
    from transportlab import cli  # the one import of the package, so compare runs without it

    os.makedirs(out, exist_ok=True)
    os.chdir(out)  # relative paths, so the printed paths match across checkouts
    for name, src in sources().items():
        os.makedirs(name, exist_ok=True)
        path = os.path.join(name, "scenario.txt")
        Path(path).write_text(src)
        for mode in MODES:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                status = cli.main(["run", path, "--mode", mode, "--seed", "7",
                                   "--out", os.path.join(name, mode)])
            Path(name, f"{mode}.out").write_text(f"exit {status}\n{stdout.getvalue()}")
        points = _points(path)
        if points is not None:
            Path(name, "points.out").write_text(points)


def _points(path: str):
    """The ``points.out`` text of a transport or continuity scenario file."""
    import numpy as np
    from transportlab import continuity, scenarios, transport

    try:
        sc = scenarios.load_scenario(path)
    except ValueError:  # the modes' .out files hold the error
        return None
    if sc.problem == "transport":
        problem = scenarios.transport_problem(sc)
    elif sc.problem == "continuity":
        problem = continuity.log_state_problem(sc.rho_s, *scenarios.continuity_data(sc))
    else:
        return None
    lines = []
    with np.errstate(all="ignore"):
        for t in (f * sc.horizon for f in POINT_TIMES):
            for x in POINT_XS:
                try:
                    value = repr(transport.solve_point(problem, sc.grid(), t, x))
                except ValueError as err:
                    value = f"{type(err).__name__}: {err}"
                lines.append(f"{t!r} {x!r} {value}\n")
    return "".join(lines)


VERDICTS = ("exit", "verdict", "passed")


def _flatten(value, key=()):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, key + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _flatten(v, key + (i,))
    else:
        yield key, json.dumps(value)


def _values(path: Path) -> dict:
    """An artifact's values as text, keyed so that the last part of a key
    names a verdict where it is one: CSV cells by row and column name, JSON
    leaves by their path, ``solve_point`` values by (t, x), and the lines of
    any other ``.out`` by number, or by ``exit`` and ``verdict``."""
    text = path.read_text()
    if path.name == "points.out":
        return {tuple(line.split(" ", 2)[:2]): line.split(" ", 2)[2]
                for line in text.splitlines()}
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        return {(i, name): cell for i, row in enumerate(rows)
                for name, cell in zip(header, row)}
    if path.suffix == ".json":
        return dict(_flatten(json.loads(text)))
    out = {}
    for i, line in enumerate(text.splitlines()):
        head, _, rest = line.partition(" ")
        if head.rstrip(":") in VERDICTS:
            out[(head.rstrip(":"),)] = rest
        else:
            out[(i,)] = line
    return out


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a: float, b: float) -> tuple:
    """Absolute and relative change; both inf where either side is not finite."""
    d = abs(a - b)
    if not math.isfinite(d):
        return math.inf, math.inf
    return d, d / max(abs(a), abs(b)) if d else 0.0


def _change(name: str, base: Path, head: Path) -> str:
    old, new = _values(base), _values(head)
    keys = sorted(set(old) | set(new), key=str)
    moved = [k for k in keys if old.get(k) != new.get(k)]
    line = f"{name}: {len(moved)} of {len(keys)} values differ"
    gaps = [_gap(a, b) for a, b in ((_number(old.get(k, "")), _number(new.get(k, "")))
                                    for k in moved if k[-1] not in VERDICTS)
            if a is not None and b is not None]
    if gaps:
        absolute, relative = (max(g) for g in zip(*gaps))
        line += f"; largest change {absolute:.3g} absolute, {relative:.3g} relative"
    for k in moved:
        if k[-1] in VERDICTS:
            line += f"\n  {'/'.join(map(str, k))}: {old.get(k)} -> {new.get(k)}"
    return line


def compare(base: str, head: str) -> list:
    """One report line per artifact that differs between two output trees."""
    names = {str(p.relative_to(root)) for root in (Path(base), Path(head))
             for p in root.rglob("*") if p.is_file()}
    report = []
    for name in sorted(names):
        b, h = Path(base, name), Path(head, name)
        if not (b.exists() and h.exists()):
            report.append(f"{name}: only in {'head' if h.exists() else 'base'}")
        elif b.read_bytes() != h.read_bytes():
            report.append(_change(name, b, h))
    return report or ["no artifact differs"]


if __name__ == "__main__":
    if sys.argv[1] == "compare":
        print("\n".join(compare(sys.argv[2], sys.argv[3])))
    else:
        write_artifacts(sys.argv[1])
