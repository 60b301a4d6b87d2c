"""tools/output_diff.py: the working tree against itself, and a one-byte change."""

import importlib
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools")


@pytest.fixture
def output_diff(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    module = importlib.import_module("output_diff")
    monkeypatch.setattr(module, "unpack", lambda rev, scratch: (module.ROOT, "0" * 40))
    monkeypatch.setattr(module, "VECTORS", [["cosets", "-p", "3", "-e", "2", "-k", "1", "-n", "4"],
                                            ["dual", "--help"]])
    return module


def test_the_working_tree_matches_itself(output_diff, tmp_path, capsys):
    assert output_diff.main(["--parent", "HEAD", "--scratch", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["same: cosets -p 3 -e 2 -k 1 -n 4", "same: dual --help",
                     "0 of 2 argv differ between 000000000000 and the working tree"]


def test_a_changed_byte_is_reported_and_exits_1(output_diff, monkeypatch, tmp_path, capsys):
    calls = []

    def runner(checkout, argv):
        calls.append(argv)
        changed = len(calls) == 2   # the working tree's run of the first argv
        return 0, b"same bytes" if not changed else b"same byteS", b""

    monkeypatch.setattr(output_diff, "run", runner)
    assert output_diff.main(["--parent", "HEAD", "--scratch", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["DIFF stdout: cosets -p 3 -e 2 -k 1 -n 4", "same: dual --help",
                     "1 of 2 argv differ between 000000000000 and the working tree"]
