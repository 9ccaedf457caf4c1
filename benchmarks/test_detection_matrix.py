"""The security "table" implicit in Sections IV–V: attack × architecture.

For every threat-model attack, run it against both architectures and
record whether the next audit detects it.  The expected matrix follows the
paper: everything is caught by both, except the state-reversion attack,
which only hash-page-on-read can see (that asymmetry is the entire
motivation for the Section V refinement).
"""

import pytest

from repro.bench import emit, format_table
from repro.common.clock import SimulatedClock, minutes
from repro.common.codec import Field, FieldType, Schema
from repro.common.config import (ComplianceConfig, ComplianceMode,
                                 DBConfig, EngineConfig)
from repro.core import Adversary, Auditor, CompliantDB

LEDGER = Schema("ledger", [
    Field("entry_id", FieldType.INT),
    Field("amount", FieldType.INT),
], key_fields=["entry_id"])

MODES = [ComplianceMode.LOG_CONSISTENT, ComplianceMode.HASH_ON_READ]


def _fresh(tmp_path, mode):
    db = CompliantDB.create(
        tmp_path, clock=SimulatedClock(),
        config=DBConfig(engine=EngineConfig(page_size=1024,
                                            buffer_pages=32),
                        compliance=ComplianceConfig(mode=mode)))
    db.create_relation(LEDGER)
    for i in range(30):
        with db.transaction() as txn:
            db.insert(txn, "ledger", {"entry_id": i, "amount": i})
    for i in range(0, 30, 3):
        with db.transaction() as txn:
            db.update(txn, "ledger", {"entry_id": i, "amount": -i})
    mala = Adversary(db)
    mala.settle()
    return db, mala


def _attack_shred(db, mala):
    mala.shred_tuple("ledger", (7,))


def _attack_alter(db, mala):
    mala.alter_tuple("ledger", (3,), {"entry_id": 3, "amount": 10**9})


def _attack_backdate(db, mala):
    mala.backdate_insert("ledger", {"entry_id": 999, "amount": 1},
                         start=db.clock.now() - minutes(90))


def _attack_swap(db, mala):
    mala.swap_leaf_entries("ledger")


def _attack_spurious_abort(db, mala):
    txn_id = sorted(db.plugin.commit_map)[5]
    mala.append_spurious_abort(txn_id)


def _attack_wal_destroyed(db, mala):
    with db.transaction() as txn:
        db.insert(txn, "ledger", {"entry_id": 400, "amount": 4})
    db.crash()
    mala.truncate_wal()
    db.recover()


def _attack_abort_never_ran(db, mala):
    mala.append_spurious_abort(max(db.plugin.commit_map) + 1000)


def _attack_reversion(db, mala):
    handle = mala.begin_state_reversion(
        "ledger", (3,), {"entry_id": 3, "amount": 424242})
    db.get("ledger", (3,))  # a victim reads the tampered page
    handle.revert()
    db.engine.buffer.drop_all()


def _attack_reversion_while_down(db, mala):
    # `_fresh` ends on a checkpoint, so no page was written since: a
    # recovery that re-based every page would launder the tampering
    db.crash()
    handle = mala.begin_state_reversion(
        "ledger", (3,), {"entry_id": 3, "amount": 424242})
    db.recover()
    db.engine.buffer.drop_all()
    db.get("ledger", (3,))  # a victim reads the tampered page
    handle.revert()
    db.engine.buffer.drop_all()


def _attack_hidden_crash(db, mala):
    db.clock.advance(minutes(45))
    mala.crash_and_silent_recovery()
    with db.transaction() as txn:
        db.insert(txn, "ledger", {"entry_id": 500, "amount": 5})


ATTACKS = [
    ("shred committed tuple", _attack_shred, {m: True for m in MODES}),
    ("alter committed payload", _attack_alter,
     {m: True for m in MODES}),
    ("post-hoc (backdated) insert", _attack_backdate,
     {m: True for m in MODES}),
    ("Fig 2(b): swap leaf entries", _attack_swap,
     {m: True for m in MODES}),
    ("spurious ABORT on L", _attack_spurious_abort,
     {m: True for m in MODES}),
    ("WAL destroyed before recovery", _attack_wal_destroyed,
     {m: True for m in MODES}),
    ("ABORT on L for a transaction that never ran",
     _attack_abort_never_ran, {m: True for m in MODES}),
    ("state reversion (read then revert)", _attack_reversion,
     {ComplianceMode.LOG_CONSISTENT: False,
      ComplianceMode.HASH_ON_READ: True}),
    ("state reversion while the DBMS is down",
     _attack_reversion_while_down,
     {ComplianceMode.LOG_CONSISTENT: False,
      ComplianceMode.HASH_ON_READ: True}),
    ("hidden crash + silent recovery", _attack_hidden_crash,
     {m: True for m in MODES}),
]


def test_detection_matrix(benchmark, tmp_path, capsys):
    def run_matrix():
        rows = []
        for number, (name, attack, expected) in enumerate(ATTACKS):
            row = [name]
            for mode in MODES:
                db, mala = _fresh(tmp_path / f"{number}-{mode.value}",
                                  mode)
                attack(db, mala)
                report = Auditor(db).audit(rotate=False)
                detected = not report.ok
                ok = "✓" if detected == expected[mode] else "✗ UNEXPECTED"
                row.append(f"{'detected' if detected else 'missed'} {ok}")
                assert detected == expected[mode], \
                    f"{name} / {mode.value}: expected " \
                    f"{expected[mode]}, got {detected}"
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    emit(capsys, format_table(
        "Detection matrix: attack × architecture",
        ["attack", "log-consistent", "hash-on-read"], rows,
        note="state reversion is the attack only hash-page-on-read "
             "catches — the paper's motivation for Section V"))
