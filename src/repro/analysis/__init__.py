"""repro.analysis — the repo-specific static-analysis pass.

See :mod:`repro.analysis.core` for the engine,
:mod:`repro.analysis.rules` for the per-module rule catalogue, and
:mod:`repro.analysis.xmodule` for the cross-module rules that run in
the same pass; :mod:`repro.analysis.sanitize` is the paired
``REPRO_SANITIZE=1`` runtime-invariant mode.  ``repro-lint``
(:mod:`repro.analysis.cli`) is the command-line front end.

This ``__init__`` imports nothing: the engine's hot modules import
``repro.analysis.sanitize`` at import time, and an empty package keeps
that from loading the lint engine too.
"""
