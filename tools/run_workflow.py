"""Run one step of the CI workflow here, against src/.

    python tools/run_workflow.py ["Installed console script"]

Reads the step's `run:` block from .github/workflows/tests.yml as text,
not as YAML (the block is plain shell, and PyYAML is not a dependency),
drops its `pip install` lines, and runs the rest under `bash -eo pipefail`
as the runner does.  `sklab` is a shell function that runs
`python -m sklab.cli` with src/ on PYTHONPATH, so the installed entry
point itself is not exercised; RUNNER_TEMP is a fresh temporary
directory.  Prints the exit code and the wall time, and exits with that
code.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def step_lines(name: str) -> list:
    """The lines of the run: block of the step called `name`, dedented."""
    lines, step, block = [], None, None
    for raw in WORKFLOW.read_text().splitlines():
        text, indent = raw.strip(), len(raw) - len(raw.lstrip())
        if block is not None and text and indent <= block:
            break
        if text.startswith("- name:"):
            step = text[len("- name:"):].strip()
        elif step == name and text.startswith("run:"):
            if text[4:].strip() != "|":
                return [text[4:].strip()]
            block = indent
        elif block is not None:
            lines.append(raw)
    if not lines:
        raise SystemExit(f"no run: block found for step {name!r}")
    width = min(len(line) - len(line.lstrip()) for line in lines if line.strip())
    return [line[width:] for line in lines]


def main(argv) -> int:
    name = argv[0] if argv else "Installed console script"
    body = [line for line in step_lines(name) if "pip install" not in line]
    script = "\n".join(['sklab() { python -m sklab.cli "$@"; }', *body])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as temp:
        env["RUNNER_TEMP"] = temp
        start = time.perf_counter()
        code = subprocess.run(["bash", "-eo", "pipefail", "-c", script],
                              cwd=ROOT, env=env).returncode
        elapsed = time.perf_counter() - start
    print(f"step {name!r}: exit {code} in {elapsed:.1f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
