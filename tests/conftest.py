"""Corpora that several test modules read, generated once per test session,
and the traced-memory measure of the memory guards."""

import tracemalloc

import pytest

from hienet.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="session")
def large_cascades():
    """Records of cascades of 100 or more nodes whose walks rarely repeat."""
    records, _ = generate_synthetic(
        SyntheticSpec(num_users=3000, num_cascades=120, mean_branching=6.0, decay=0.5)
    )
    return records


def traced(call):
    """``call()``'s result, the traced memory it still holds when it returns,
    and the most traced at once while it ran. Memory allocated before the
    call is not traced, so both figures count the call's own allocations."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
        return result, held, peak
    finally:
        tracemalloc.stop()
