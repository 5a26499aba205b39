"""Committed snapshot digests: the checkpoint bytes are pinned, not re-argued.

Each case runs a small faulted scenario to a fixed event count and hashes
``snapshot_run(runner, spec)`` under the store's canonical encoding.  A
refactor of any stateful layer (the runner's running-job records, the
scheduler queues, the engine inventory) that changes a single byte of the
checkpoint — a field order, a float's rounding, a renamed key — fails
here, even when resume still round-trips.  A change meant to alter the
snapshot updates these digests and says so in CHANGES.md (a format
change also bumps ``CHECKPOINT_SCHEMA_VERSION``).

The points cover running training and CPU jobs, stashed preemption
progress and a stale lazy timer.  The snapshot is of an unaudited run:
an attached auditor adds its own state to the document.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.checkpoint.test_restore import _faulted_spec, _snapshot_at

REPO_ROOT = Path(__file__).resolve().parents[2]

#: (scheduler, events fired) -> sha256 of the canonical snapshot JSON.
DIGESTS = {
    ("fifo", 150): "95852f8944b948b815adc462a51f7769fa957389f3db840e257c8de5ead9dfc4",
    ("fifo", 300): "156792c429be7dfaf12cabf3aeccbbf4bd615c2d8d0e8d511bffc0888fb8547e",
    ("fifo", 320): "a69e49c673cdf4549cdde2226fb77647a1f5c19d04b91b7ba03a0d7aca75707d",
    ("drf", 150): "4b67794e911aca536164a4abea9d842757ac3672aeb9b9914bf3f991c2394022",
    ("drf", 300): "5bda9e2243dfb966e8c62fcf24de797761842afbf100948f5244c1d780291313",
    ("drf", 320): "236701abd7182590537be1206c0971995471e6838f028582b056c05270344207",
    ("coda", 150): "2c60deab419117a3ec7ac8567650e71e441db73569fefe7f3cc695cbcfe71c6d",
    ("coda", 300): "b7c545a0cbf80aad99a774177a529101327d0e6709bd7cc835a06d6465cb9f8c",
    ("coda", 320): "e261c7c64ecea858022671c491cdae83378b9b9303a72b3fec1a3180fab060ff",
}


def snapshot_digest(scheduler: str, events: int) -> str:
    """sha256 of the canonical encoding of one pinned snapshot."""
    state = _snapshot_at(_faulted_spec(scheduler), kill_at=events)
    assert state["engine"]["fired"] == events
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "scheduler,events", sorted(DIGESTS), ids=[f"{s}@{n}" for s, n in sorted(DIGESTS)]
)
def test_snapshot_matches_committed_digest(monkeypatch, scheduler, events):
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    assert snapshot_digest(scheduler, events) == DIGESTS[scheduler, events]


def test_digests_do_not_depend_on_the_hash_seed():
    """Set iteration order varies with PYTHONHASHSEED; the snapshot must
    not.  Recompute every digest in a child under two fixed seeds."""
    script = (
        "from tests.checkpoint.test_snapshot_digest import DIGESTS, snapshot_digest\n"
        "bad = [k for k in sorted(DIGESTS) if snapshot_digest(*k) != DIGESTS[k]]\n"
        "print(bad)\n"
    )
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env.pop("REPRO_AUDIT", None)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]", (seed, out.stdout, out.stderr)

