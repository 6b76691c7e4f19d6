"""Web server log substrate.

Common Log Format entries and streaming parsing, log containers with
the indexes the clustering pipeline needs, per-log summary statistics,
a deterministic URL catalog (sizes + modification histories for the
caching simulation), the synthetic workload generator, and per-paper-
log presets (Nagano, Apache, EW3, Sun, ISP trace).
"""

from repro.weblog.catalog import UrlCatalog
from repro.weblog.entry import LogEntry, LogFormatError, format_clf_time, parse_clf_time
from repro.weblog.parser import ParseReport, WebLog, load_clf, parse_clf_lines
from repro.weblog.presets import PRESET_NAMES, make_log, make_spec
from repro.weblog.stats import LogStats, requests_by_client, summarize
from repro.weblog.anonymize import PrefixPreservingAnonymizer
from repro.weblog.writer import save_log
from repro.weblog.synth import (
    ProxySpec,
    SpiderSpec,
    SyntheticLog,
    WorkloadSpec,
    generate_log,
)

__all__ = [
    "PrefixPreservingAnonymizer",
    "save_log",
    "LogEntry",
    "LogFormatError",
    "format_clf_time",
    "parse_clf_time",
    "WebLog",
    "ParseReport",
    "parse_clf_lines",
    "load_clf",
    "LogStats",
    "summarize",
    "requests_by_client",
    "UrlCatalog",
    "WorkloadSpec",
    "SpiderSpec",
    "ProxySpec",
    "SyntheticLog",
    "generate_log",
    "PRESET_NAMES",
    "make_spec",
    "make_log",
]
