"""Byte identity of the shipped reports: stdout digest and exit code per command.

``golden_reports.json`` lists each command line with the sha256 of its stdout
and its exit code.  A change that alters one of these reports on purpose
records the new digest there.
"""

import hashlib
import json
import os

import pytest

from ramcond.cli import main

HERE = os.path.dirname(__file__)

with open(os.path.join(HERE, "golden_reports.json"), encoding="utf-8") as fh:
    CASES = json.load(fh)


def _case_id(case):
    return "-".join(
        a.removeprefix("--").removeprefix("scenarios/").removesuffix(".json") for a in case["argv"]
    )


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_report_matches_golden_digest(capsys, case):
    argv = [os.path.join(HERE, "..", a) if a.startswith("scenarios/") else a for a in case["argv"]]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (code, digest) == (case["exit_code"], case["stdout_sha256"])
