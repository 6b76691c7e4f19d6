"""Shared utilities: deterministic RNG streams, Zipf sampling, and
plain-text rendering of experiment tables and figures."""
