"""Fixtures shared across test modules."""

import pytest

from pgf.verify import run_claims


@pytest.fixture(scope="session")
def claim_results():
    """One real run of the eight-claim gate, shared by the acceptance tests
    and the `pgf verify` CLI tests, which replay it instead of rerunning."""
    return tuple(run_claims())
