"""Run ``qtelescopy`` CLI arguments in this process with the span tracer installed.

Usage: python traced_child.py SPANS.npz SUBCOMMAND [CLI ARGS...]

The spans are written to SPANS.npz when the command ends; the exit code is
the CLI's.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qtelescopy.cli  # noqa: E402
import tracer  # noqa: E402

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    tracer.install(recorder)
    recorder.op = 0
    try:
        code = qtelescopy.cli.main(argv)
    finally:
        recorder.save(spans_path)
    sys.exit(code)
