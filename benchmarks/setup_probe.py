"""Set-up time of a fresh interpreter: import the CLI and answer one request.

Usage: python3 setup_probe.py <src-dir> <cli argument>...
Prints {"setup_s": seconds, "rc": exit code} on one line.  The clock starts
at this script's first statement, so the interpreter's own start-up is not
included.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from kratzer2d.cli import main  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main(sys.argv[2:])
print(json.dumps({"setup_s": time.perf_counter() - START, "rc": rc}))
