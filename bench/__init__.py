"""The repo's end-to-end benchmark: four workloads over the public
Python API, five bounded end-to-end metrics and a traced per-layer
breakdown.  See ``bench/README.md``; ``BENCHMARK.json`` at the repo
root is the machine-readable contract and ``bench/spec.py`` its
annotated source.

Nothing under ``src/`` knows about this package: the harness drives the
system exactly as the CLI loops do and observes layers by wrapping
their public callables from the outside (``bench/trace.py``).
"""
