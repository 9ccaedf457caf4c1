"""The ledger reads metric names that the database registers.

``benchmarks/ledger/metrics.py`` reads counters out of ``metrics()`` by
name, mostly as ``counters.get(name, 0)``: a binding deleted or renamed
in ``src`` would turn its metric into a silent 0 rather than an error.
This test loads that module's source by file path and checks every
``*_total`` name it reads from the storage, WORM and compliance-plugin
families against a fresh hash-on-read database.  The module imports its
siblings as top-level modules (``tracer``, ``workloads``), so its string
literals are read from the syntax tree instead of executing it.
"""

import ast
import re
from pathlib import Path

import pytest

from repro import (ComplianceMode, CompliantDB, DBConfig, Field, FieldType,
                   Schema, SimulatedClock)

METRICS_PATH = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "ledger" / "metrics.py")

#: the families whose counters the components bind at construction
_FAMILY = re.compile(r"^((?:worm|pager|buffer|plugin|clog)_\w+_total)\b")
HASH_GAUGES = ("hash_sha512_calls", "hash_memo_hits")


def _ledger_names():
    tree = ast.parse(METRICS_PATH.read_text(), filename=str(METRICS_PATH))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _FAMILY.match(node.value)
            if match:
                names.add(match.group(1))
    return sorted(names)


LEDGER_NAMES = _ledger_names()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    db = CompliantDB.create(
        tmp_path_factory.mktemp("ledger-names") / "db",
        DBConfig.for_mode(ComplianceMode.HASH_ON_READ),
        clock=SimulatedClock())
    db.create_relation(Schema("rows", [Field("k", FieldType.INT),
                                       Field("v", FieldType.INT)],
                              key_fields=["k"]))
    with db.transaction() as txn:
        db.insert(txn, "rows", {"k": 1, "v": 1})
    db.engine.checkpoint()
    metrics = db.metrics()
    db.close()
    return metrics


def test_the_ledger_reads_names_from_every_family():
    families = {name.split("_", 1)[0] for name in LEDGER_NAMES}
    assert families == {"worm", "pager", "buffer", "plugin", "clog"}


@pytest.mark.parametrize("name", LEDGER_NAMES)
def test_ledger_counter_is_registered(report, name):
    counters = report["counters"]
    assert any(key == name or key.startswith(name + "{")
               for key in counters), f"{name} is not in db.metrics()"


@pytest.mark.parametrize("name", HASH_GAUGES)
def test_hash_gauges_are_published(report, name):
    assert name in report["gauges"]
