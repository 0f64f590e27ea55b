"""Registry records left behind by the removed sampled-simulation engine.

Registries written before the engine was removed may still hold sampled
estimates: a run record whose identity carries a ``sampling`` block, and
a sweep-point record whose provenance carries a ``sampling`` tag. The
fixture holds one of each, exactly as that engine wrote them. They must
stay inert: clean under fsck, never replayed as a full run, and diffable
like any other run record.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.sweep import run_sweep, sweep_points
from repro.registry.diffing import DEFAULT_ATOL, DEFAULT_RTOL
from repro.registry.records import content_hash
from repro.registry.store import RegistryStore
from repro.resilience.fsck import fsck

FIXTURE = Path(__file__).parent / "fixtures" / "legacy_sampled_records.jsonl"

#: The point both legacy records estimated.
APP, CONFIG, SCALE = "BFS", "base", 0.1


def _legacy_records() -> list[dict]:
    lines = FIXTURE.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _legacy_run_record() -> dict:
    """The ``repro run --sampled`` record (carries error bars)."""
    return next(r for r in _legacy_records() if "sweep_record" not in r["data"])


def _legacy_sweep_record() -> dict:
    """The ``repro sweep --sampled`` point record."""
    return next(r for r in _legacy_records() if "sweep_record" in r["data"])


@pytest.fixture
def store(tmp_path, monkeypatch):
    root = tmp_path / "registry"
    root.mkdir()
    shutil.copy(FIXTURE, root / "records.jsonl")
    monkeypatch.setenv("REPRO_REGISTRY_DIR", str(root))
    registry = RegistryStore(root)
    registry.rebuild_index()
    runner.clear_cache()
    yield registry
    runner.clear_cache()


def _full_sweep(store: RegistryStore, tmp_path):
    points = sweep_points([APP], [CONFIG], scales=[SCALE])
    return run_sweep(points, str(tmp_path / "sweep.jsonl"), registry=store)


def test_fsck_reports_no_problems(store):
    report = fsck(store)
    assert report.ok, report.counts()
    assert report.records == 2


def test_sweep_simulates_and_files_under_full_run_id(store, tmp_path):
    summary = _full_sweep(store, tmp_path)
    assert summary.cache_hits == 0
    assert summary.simulated == 1

    legacy_ids = {record["run_id"] for record in _legacy_records()}
    new = [r for r in store.list(kind="run") if r["run_id"] not in legacy_ids]
    assert len(new) == 1
    # The full-run id is the legacy identity without its sampling block.
    identity = dict(_legacy_sweep_record()["identity"])
    del identity["sampling"]
    assert new[0]["run_id"] == content_hash(identity)
    assert "sampling" not in new[0]["identity"]
    assert "sampling" not in new[0]["data"]["sweep_record"]


def test_diff_uses_the_plain_tolerance_band(store, tmp_path, capsys):
    _full_sweep(store, tmp_path)
    sampled = _legacy_run_record()
    assert sampled["data"]["sampling"]["error_bars"]
    identity = dict(sampled["identity"])
    del identity["sampling"]
    full = store.resolve(content_hash(identity))
    capsys.readouterr()

    code = main(["diff", sampled["run_id"], full["run_id"], "--json"])
    report = json.loads(capsys.readouterr().out)

    # The legacy error bars no longer widen anything: the failures are
    # exactly the shared metrics outside atol + rtol * |a|.
    a, b = sampled["metrics"], full["metrics"]
    expected = sorted(
        key for key in set(a) & set(b)
        if abs(b[key] - a[key]) > DEFAULT_ATOL + DEFAULT_RTOL * abs(a[key])
    )
    assert sorted(row["key"] for row in report["failed"]) == expected
    assert all("bar" not in row for row in report["failed"])
    assert code == (1 if expected else 0)
