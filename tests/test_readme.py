"""The README's examples run as written: a stale README fails here."""

import contextlib
import io
import re
from pathlib import Path

from transportlab import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, re.S)


def _blocks(lang):
    return [code for kind, code in BLOCKS if kind == lang]


def _run(code, namespace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    return out.getvalue().splitlines()


def test_library_quick_start_and_closed_loop_blocks_run():
    quick_start, closed_loop = _blocks("python")
    namespace = {}  # the closed-loop block uses the quick start's imports
    verdicts = _run(quick_start, namespace)
    assert verdicts and all(line.split()[2] == "True" for line in verdicts)
    assert _run(closed_loop, namespace) == ["0.5 2.0 True"]
    assert closed_loop.rstrip().endswith("# 0.5 2.0 True")


def test_scenario_file_certifies(tmp_path):
    (scenario,) = _blocks("text")
    path = tmp_path / "readme.txt"
    path.write_text(scenario)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", str(path), "--mode", "certify", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "readme_cert.json").exists()
