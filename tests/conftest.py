"""Suite-wide: the golden files, checked or re-recorded.

Every golden-pinned test takes its :class:`~repro.testing.signature.GoldenFile`
from the ``golden_file`` fixture, one per file per session, so tests in
different modules that pin the same label check one entry.  With
``--record-golden`` the same tests record what they observe instead;
at session end each touched file under ``tests/golden/`` is rewritten
and every pin that moved is printed.  The one re-record command::

    PYTHONPATH=src python -m pytest -q --record-golden
"""

from pathlib import Path

import pytest

from repro.testing.signature import GoldenFile

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_GOLDEN_FILES = pytest.StashKey[dict]()
_MOVED = pytest.StashKey[list]()


def pytest_addoption(parser):
    parser.addoption(
        "--record-golden",
        action="store_true",
        help="record the golden pins this session observes instead of "
        "checking them, rewrite tests/golden and print the pins that moved",
    )


def pytest_configure(config):
    config.stash[_GOLDEN_FILES] = {}


@pytest.fixture(scope="session")
def golden_file(pytestconfig):
    """``golden_file(name, labels)``: the session's GoldenFile for
    ``tests/golden/<name>``, whose declared cases are ``labels``."""
    files = pytestconfig.stash[_GOLDEN_FILES]
    record = pytestconfig.getoption("record_golden")

    def open_golden(name: str, labels) -> GoldenFile:
        if name not in files:
            files[name] = GoldenFile(GOLDEN_DIR / name, labels, record)
        return files[name]

    return open_golden


def pytest_sessionfinish(session):
    if session.config.getoption("record_golden"):
        files = session.config.stash[_GOLDEN_FILES]
        session.config.stash[_MOVED] = [
            line for name in sorted(files) for line in files[name].write()
        ]


def pytest_terminal_summary(terminalreporter, config):
    if not config.getoption("record_golden"):
        return
    files = config.stash[_GOLDEN_FILES]
    moved = config.stash[_MOVED]
    terminalreporter.section("recorded goldens")
    for name in sorted(files):
        terminalreporter.write_line(
            f"{name}: {len(files[name].observed)} pins observed"
        )
    for line in moved:
        terminalreporter.write_line(f"  {line}")
    terminalreporter.write_line(f"{len(moved)} pins moved")
