"""Run one `sklab` command with the package traced, for the traced cli run.

Usage: python cli_child.py SPANS.json ARGS...

Times `import sklab.cli`, wraps the package with the span recorder, runs
the command exactly as `python -m sklab.cli ARGS...` would, writes the
spans and the import time to SPANS.json and exits with the command's code.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import sklab.cli
    t1 = perf_counter()
    import spans

    recorder = spans.Recorder()
    recorder.spans.append(["cli.import", t0, t1, -1, False])
    spans.install(recorder)
    try:
        code = sklab.cli.run(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": t1 - t0, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
