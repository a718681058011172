"""The `repro ledger` command family, driven in-process via main(argv)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.forest import load_forest, save_forest
from repro.forest import forest_fingerprint
from repro.ledger import (
    LedgerStore,
    record_event,
    record_model,
    record_surrogate,
)


@pytest.fixture()
def ledger_dir(tmp_path, ledger_forest, ledger_forest_v2,
               ledger_explanation):
    """A populated ledger: two model versions, one surrogate, a lineage."""
    store = LedgerStore(tmp_path)
    fp1 = forest_fingerprint(ledger_forest)
    fp2 = forest_fingerprint(ledger_forest_v2)
    m1 = record_model(store, ledger_forest)
    m2 = record_model(store, ledger_forest_v2)
    s1 = record_surrogate(store, ledger_explanation, fp1)
    record_event(store, "register", "bench",
                 {"fingerprint": fp1, "model_entry": m1.entry_id})
    record_event(store, "hot-swap", "bench",
                 {"fingerprint": fp2, "model_entry": m2.entry_id,
                  "from_fingerprint": fp1})
    return tmp_path, {"m1": m1, "m2": m2, "s1": s1,
                      "fp1": fp1, "fp2": fp2}


def test_log_lists_entries_and_audits(ledger_dir, capsys):
    path, refs = ledger_dir
    assert main(["ledger", "--path", str(path), "log", "--audit"]) == 0
    out = capsys.readouterr().out
    assert "audit ok" in out
    assert refs["m1"].short_id in out
    assert refs["s1"].short_id in out
    assert "5 entries" in out


def test_log_filters_by_kind_and_key(ledger_dir, capsys):
    path, refs = ledger_dir
    assert main([
        "ledger", "--path", str(path), "log", "--kind", "event",
        "--key", "bench",
    ]) == 0
    out = capsys.readouterr().out
    assert "action=register" in out
    assert "action=hot-swap" in out
    assert refs["s1"].short_id not in out


def test_show_summarizes_then_dumps_payload(ledger_dir, capsys):
    path, refs = ledger_dir
    assert main([
        "ledger", "--path", str(path), "show", refs["m1"].short_id,
    ]) == 0
    header = json.loads(capsys.readouterr().out)
    assert header["entry_id"] == refs["m1"].entry_id
    assert header["payload_keys"] == ["fingerprint", "model", "n_features"]
    assert "payload" not in header
    assert main([
        "ledger", "--path", str(path), "show", refs["m1"].short_id,
        "--payload",
    ]) == 0
    full = json.loads(capsys.readouterr().out)
    assert full["payload"]["fingerprint"] == refs["fp1"]


def test_verify_surrogate_in_fresh_process_style(ledger_dir, capsys):
    path, refs = ledger_dir
    code = main([
        "ledger", "--path", str(path), "verify", refs["s1"].short_id,
    ])
    assert code == 0
    assert "bit for bit" in capsys.readouterr().out


def test_diff_renders_and_jsons(ledger_dir, ledger_explanation_v2, capsys):
    path, refs = ledger_dir
    store = LedgerStore(path)
    s2 = record_surrogate(store, ledger_explanation_v2, refs["fp2"])
    assert main([
        "ledger", "--path", str(path), "diff",
        refs["s1"].short_id, s2.short_id,
    ]) == 0
    assert "SURROGATE DIFF" in capsys.readouterr().out
    assert main([
        "ledger", "--path", str(path), "diff",
        refs["s1"].short_id, s2.short_id, "--json",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["identical_forest"] is False


def test_rollback_writes_previous_forest(ledger_dir, tmp_path_factory,
                                         capsys):
    path, refs = ledger_dir
    out = tmp_path_factory.mktemp("rollback") / "restored.json"
    code = main([
        "ledger", "--path", str(path), "rollback", "bench",
        "--out", str(out),
    ])
    assert code == 0
    assert f"{refs['fp2']} -> {refs['fp1']}" in capsys.readouterr().out
    restored = load_forest(out)
    assert forest_fingerprint(restored) == refs["fp1"]
    # The rollback itself became a ledger event.
    events = LedgerStore(path).entries(kind="event", key="bench")
    assert events[-1].payload["action"] == "rollback"
    assert events[-1].payload["via"] == "cli"


def test_rollback_without_lineage_errors(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main([
        "ledger", "--path", str(tmp_path / "ledger"), "rollback", "ghost",
        "--out", str(out),
    ])
    assert code == 1
    assert "no ledgered lineage" in capsys.readouterr().err
    assert not out.exists()


def test_explain_ledger_flag_records_both_entries(tmp_path, ledger_forest,
                                                  capsys):
    model_path = tmp_path / "model.json"
    save_forest(ledger_forest, model_path)
    ledger_path = tmp_path / "ledger"
    code = main([
        "explain", str(model_path),
        "--splines", "3", "--samples", "800", "--k", "8",
        "--ledger", str(ledger_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "ledgered: model entry" in out
    assert f"fingerprint {forest_fingerprint(ledger_forest)}" in out
    store = LedgerStore(ledger_path)
    assert len(store.entries(kind="model")) == 1
    assert len(store.entries(kind="surrogate")) == 1
