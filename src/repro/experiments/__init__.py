"""Experiment harness: regenerates every table and figure of the
paper's evaluation.  See :mod:`repro.experiments.runner` for the CLI
and DESIGN.md for the per-experiment index."""
