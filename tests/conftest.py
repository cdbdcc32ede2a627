"""Corpora that several test modules read, generated once per test session."""

import pytest

from hienet.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="session")
def large_cascades():
    """Records of cascades of 100 or more nodes whose walks rarely repeat."""
    records, _ = generate_synthetic(
        SyntheticSpec(num_users=3000, num_cascades=120, mean_branching=6.0, decay=0.5)
    )
    return records
