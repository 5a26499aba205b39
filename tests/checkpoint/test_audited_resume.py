"""Resume with the invariant auditor attached.

The auditor counts into the run's ``collector.audit`` and sweeps on a
fixed simulated cadence, so a resumed audited run must pick up both the
restored counters and the snapshotted cadence to finish byte-identical
to the uninterrupted audited run.  Snapshots of unaudited runs must not
change shape.
"""

import json

import pytest

from tests.checkpoint.test_restore import (
    _dumps,
    _faulted_spec,
    _plain_spec,
    _resume_to_completion,
    _snapshot_at,
)


@pytest.mark.parametrize("scheduler", ["fifo", "drf", "coda"])
def test_audited_resume_matches_uninterrupted_audited_run(monkeypatch, scheduler):
    monkeypatch.setenv("REPRO_AUDIT", "1")
    spec = _faulted_spec(scheduler)
    state = json.loads(json.dumps(_snapshot_at(spec, kill_at=150)))
    assert "next_due" in state["auditor"]
    resumed = _resume_to_completion(spec, state)
    assert resumed.collector.audit.checks_run > 0
    assert _dumps(resumed) == _dumps(spec.execute())


def test_unaudited_snapshot_has_no_auditor_state(monkeypatch):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    spec = _plain_spec()
    assert spec.build_runner().auditor is None
    state = _snapshot_at(spec, kill_at=80)
    assert sorted(state) == ["cluster", "collector", "engine", "runner",
                             "scheduler", "spec"]
