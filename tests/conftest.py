"""Test-suite options.

``pytest --acceptance-record PATH`` writes the acceptance criteria's records
to PATH as one JSON list, one object per criterion in the order they ran:
``number``, ``status``, ``detail``, ``seconds`` and ``budget``.  The file is
rewritten after each criterion, so it holds every criterion run so far.
"""

import json

import pytest

_RECORDS = pytest.StashKey[list]()


def pytest_addoption(parser):
    parser.addoption("--acceptance-record", metavar="PATH", default=None,
                     help="write each acceptance criterion's number, status, detail, "
                          "seconds and budget to PATH as a JSON list")


@pytest.fixture
def acceptance_record(request):
    """Append one criterion's record to the ``--acceptance-record`` file;
    without the option, do nothing."""
    path = request.config.getoption("acceptance_record")
    records = request.config.stash.setdefault(_RECORDS, [])

    def record(entry: dict) -> None:
        if path is None:
            return
        records.append(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")

    return record
