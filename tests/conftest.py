import sys
import os

from hypothesis import settings

# make sibling test modules importable when pytest is run from the repo root
sys.path.insert(0, os.path.dirname(__file__))

# Every run draws the same examples: the seed comes from each test's name,
# and no example database replays failures found by earlier runs.
settings.register_profile("posroot", derandomize=True, deadline=None, database=None)
settings.load_profile("posroot")

acceptance_results = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_results:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_results:
            terminalreporter.write_line(line)
