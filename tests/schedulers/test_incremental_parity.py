"""Parity of the incremental pass (pass skipping, share heaps, the
memoized snapshot) with ``reference=True`` under hardware faults.

The harness and the equality argument live in
:mod:`tests.schedulers.reference_parity`; the clean cases share their
runs with :mod:`tests.schedulers.test_lazy_reprice_parity`.
"""

import pytest

from tests.schedulers.reference_parity import POLICIES, SEEDS, assert_parity


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_matches_full_rescan(policy, seed, faulted):
    assert_parity(policy, seed, "hardware" if faulted else "clean")


@pytest.mark.parametrize("faulted", (False, True), ids=("clean", "faulted"))
@pytest.mark.parametrize("policy", POLICIES)
def test_incremental_matches_full_rescan_under_congestion(policy, faulted):
    assert_parity(policy, 0, "hardware" if faulted else "clean", storm=True)
