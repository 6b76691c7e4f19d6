"""Each command line loads only the modules it runs.

Packages are namespaces: every ``repro/<pkg>/__init__.py`` is a
docstring, so importing a CLI pulls in its own dependency chain and
nothing else — no topology generator, snapshot synthesiser, cache
simulator, experiment or lint engine.  The sets are pinned exactly: a
new import on a CLI's path has to be added here on purpose.
"""

import pytest

_CLUSTER = [
    "repro",
    "repro.bgp", "repro.bgp.formats", "repro.bgp.table",
    "repro.cli",
    "repro.core", "repro.core.clustering", "repro.core.metrics",
    "repro.core.threshold",
    "repro.net", "repro.net.ipv4", "repro.net.prefix", "repro.net.radix",
    "repro.util", "repro.util.tables",
    "repro.weblog", "repro.weblog.entry", "repro.weblog.parser",
]

_ENGINE_CORE = _CLUSTER + [
    "repro.analysis", "repro.analysis.sanitize",
    "repro.engine", "repro.engine.fastpath", "repro.engine.metrics",
    "repro.engine.packed", "repro.engine.state",
    "repro.errors", "repro.faults",
]

MODULE_SETS = {
    "import repro": ["repro"],
    "import repro.cli": _CLUSTER,
    "import repro.engine.cli": _ENGINE_CORE + [
        "repro.engine.cli", "repro.engine.shard", "repro.engine.supervisor",
    ],
    "import repro.serve.cli": _ENGINE_CORE + [
        "repro.serve", "repro.serve.cli", "repro.serve.daemon",
        "repro.serve.protocol", "repro.serve.wal",
    ],
}


@pytest.mark.parametrize("statement", sorted(MODULE_SETS))
def test_import_loads_exactly_its_module_set(loaded_modules, statement):
    assert loaded_modules(statement) == sorted(MODULE_SETS[statement])
