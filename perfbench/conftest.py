"""Make ``repro`` importable from the repository's ``src/`` for the
benchmark's own tests (``python3 -m pytest perfbench``)."""

import run

run.bootstrap()
