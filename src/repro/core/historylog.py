"""The backend job-history log (Sec. V-A step 5).

When a job completes, "its resource usage, scheduling information, and
owner information are recorded in a log for future use".  The adaptive CPU
allocator reads this log to pick N_start: "a user tends to submit similar
training jobs", so the tuned core counts of the owner's past jobs in the
same category are the best predictor for the next one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class HistoryEntry:
    """One completed training job's outcome."""

    job_id: str
    model_name: str
    category: str
    tuned_cores: int


class TenantHistory:
    """Per-tenant, per-category ring buffers of tuned core counts.

    The N_start answers are read on every placement attempt but change
    only when the log is written, so the maxima are maintained by
    :meth:`record` and :meth:`restore` and the queries are dict reads.
    """

    def __init__(self, window: int = 20) -> None:
        if window < 1:
            raise ValueError(f"history window must be positive: {window}")
        self._window = window
        self._entries: Dict[Tuple[int, str], Deque[HistoryEntry]] = {}
        #: tenant -> category -> largest tuned cores in that ring buffer.
        self._best: Dict[int, Dict[str, int]] = {}
        #: tenant -> largest tuned cores over all its categories.
        self._best_any: Dict[int, int] = {}

    def record(
        self,
        tenant_id: int,
        job_id: str,
        model_name: str,
        category: str,
        tuned_cores: int,
    ) -> None:
        if tuned_cores < 1:
            raise ValueError(f"{job_id}: tuned cores must be positive")
        key = (tenant_id, category)
        bucket = self._entries.setdefault(key, deque(maxlen=self._window))
        bucket.append(
            HistoryEntry(
                job_id=job_id,
                model_name=model_name,
                category=category,
                tuned_cores=tuned_cores,
            )
        )
        self._refresh(tenant_id, category)

    def _refresh(self, tenant_id: int, category: str) -> None:
        """Recompute the maxima one ring buffer feeds (an append may have
        evicted the old largest entry, so this rescans the bucket)."""
        bucket = self._entries[(tenant_id, category)]
        if not bucket:
            return
        per_category = self._best.setdefault(tenant_id, {})
        per_category[category] = max(entry.tuned_cores for entry in bucket)
        self._best_any[tenant_id] = max(per_category.values())

    def best_cores(self, tenant_id: int, category: str) -> Optional[int]:
        """The paper's rule: "we choose the largest core number" among the
        owner's recent same-category jobs.  None with no history."""
        per_category = self._best.get(tenant_id)
        return None if per_category is None else per_category.get(category)

    def best_cores_any_category(self, tenant_id: int) -> Optional[int]:
        """Worst-case fallback (Sec. V-B1): the owner gave no category, so
        use their history across all categories."""
        return self._best_any.get(tenant_id)

    def entries_for(self, tenant_id: int, category: str) -> Tuple[HistoryEntry, ...]:
        return tuple(self._entries.get((tenant_id, category), ()))

    # ------------------------------------------------------------------ #
    # Checkpoint / restore

    def snapshot(self) -> List[Any]:
        return [
            [
                tenant_id,
                category,
                [
                    [e.job_id, e.model_name, e.category, e.tuned_cores]
                    for e in bucket
                ],
            ]
            for (tenant_id, category), bucket in sorted(self._entries.items())
        ]

    def restore(self, state: List[Any]) -> None:
        self._entries = {}
        self._best = {}
        self._best_any = {}
        for tenant_id, category, entries in state:
            bucket: Deque[HistoryEntry] = deque(maxlen=self._window)
            for job_id, model_name, entry_category, tuned_cores in entries:
                bucket.append(
                    HistoryEntry(
                        job_id=str(job_id),
                        model_name=str(model_name),
                        category=str(entry_category),
                        tuned_cores=int(tuned_cores),
                    )
                )
            self._entries[(int(tenant_id), str(category))] = bucket
        for tenant_id, category in sorted(self._entries):
            self._refresh(tenant_id, category)
