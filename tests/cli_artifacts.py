"""Write the artifacts of every CLI mode for the scenario sources of the tests.

    PYTHONPATH=<checkout>/src python tests/cli_artifacts.py OUT

runs simulate, certify, oracle-compare, experiments and sweep (seed 7) on
each ``*_SRC`` scenario of ``tests/test_cli.py`` and on the README's
scenario file, with whichever ``transportlab`` the path imports.  Each run's
artifacts land in ``OUT/<source>/<mode>/`` next to ``<mode>.out``, its exit
status and stdout.  Run it once per checkout and compare the two directories
(``diff -r``) to see which artifacts a change moved.  The sources are read
from the files, not imported, so a test module of one checkout can drive
another checkout's package.
"""

import ast
import contextlib
import io
import os
import re
import sys
from pathlib import Path

from transportlab import cli

TESTS = Path(__file__).resolve().parent
MODES = ("simulate", "certify", "oracle-compare", "experiments", "sweep")


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


if __name__ == "__main__":
    write_artifacts(sys.argv[1])
