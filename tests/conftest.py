"""Shared fixtures."""

import functools

import pytest

from weylmahonian.checks import run_all  # bound here: tests may patch checks.run_all


@pytest.fixture(scope="session")
def registry_reports():
    """The reports of one named check over its default grid, computed once
    per session: the acceptance criteria gate on them and the pinned
    verify --all outputs render them."""
    return functools.cache(lambda name: tuple(run_all([name])))
