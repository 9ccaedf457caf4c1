"""The layer ledger's trace table names entry points that exist.

``benchmarks/ledger/tracer.py`` wraps every ``TARGETS`` entry point at
install time and raises if one is gone, so a source refactor that
renames or removes a traced method breaks the benchmark.  This test
checks the same names without installing anything: it loads the tracer
by file path and resolves each row the way ``Tracer.install`` does
(``vars`` of the class or module, not inherited attributes).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = (Path(__file__).resolve().parent.parent
               / "benchmarks" / "ledger" / "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_ledger_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize(
    "layer,where,names", TRACER.TARGETS,
    ids=[f"{layer}:{where}" for layer, where, _ in TRACER.TARGETS])
def test_every_traced_entry_point_exists(layer, where, names):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = vars(owner).get(class_name)
        assert isinstance(owner, type), f"{where} is not a class"
    missing = [name for name in names.split() if name not in vars(owner)]
    assert not missing, f"{where} lacks traced entry points {missing}"


def test_writer_queue_submit_exists():
    # the tracer's cross-thread span wraps this one method by name
    service = importlib.import_module("repro.server.service")
    assert callable(vars(service.SingleWriterExecutor).get("submit"))
