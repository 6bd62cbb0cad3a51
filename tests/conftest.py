"""The opt-in marker: a test marked `slow` runs only with --runslow."""

import pytest


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: a long test, run only with --runslow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="opt-in: run with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
