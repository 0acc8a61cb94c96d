"""Removed CLI surfaces: the ``--engine`` flag and the ``bench`` verb.

Fidelity is the one tier selector, and ``python3 e2ebench/run.py`` is
the one performance harness.
"""

import pytest

from repro.cli import main as cli_main


def test_cli_engine_flag_validates_choices(capsys):
    # Fidelity is the one tier selector; there is no --engine flag.
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["fig02", "--engine", "event"])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_list_mentions_bench(capsys):
    # There is no bench verb: list does not offer it and it is a usage error.
    assert cli_main(["list"]) == 0
    verbs = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert "bench" not in verbs
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["bench", "run"])
    assert excinfo.value.code == 2
