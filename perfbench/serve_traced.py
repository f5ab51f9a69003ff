"""Run a ``repro`` server command with the benchmark's timing wrappers.

Usage::

    python perfbench/serve_traced.py SPANS.json serve --port 0 ...
    python perfbench/serve_traced.py SPANS.json fleet serve --port 0 ...

The wrappers from :mod:`spans` are installed first; then the normal
``repro`` command line runs, so the process has the same shape as an
untraced ``python -m repro serve``.  When the server shuts down (SIGTERM)
the recorded spans are written to ``SPANS.json``.
"""

import sys

import spans
from repro.cli import main

if __name__ == "__main__":
    recorder = spans.install()
    try:
        code = main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])
    sys.exit(code)
