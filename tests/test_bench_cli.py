"""The benchmark under ``perfbench/`` drives the CLI with fixed argument
lists. These tests parse every command line its workloads send and run the
common-flag stage ``dispatch`` runs after parsing, so a parser change that
would make a benchmark round exit 1, or a refused flag that would make it
exit 2, fails here first."""

import collections
from pathlib import Path

import pytest

from micerank import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


class _Boundary:
    """Stands in for ``spans.Boundary``: no item latencies are recorded."""

    items = collections.defaultdict(list)


def test_every_workload_command_line_parses(workloads, tmp_path):
    seen = set()

    def parse_only(argv):
        parser = cli._build_parser()
        args = parser.parse_args(argv)
        cli._default_common(parser, args)
        cli._refuse_unread(args)
        assert args.command in cli._COMMANDS
        seen.add(args.command)
        return 1, 0.0, 0.0

    for name, workload in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl = workload(work, seed=1)
        wl.write_inputs()
        assert not wl.round(0, _Boundary(), parse_only).ok
    assert seen == {"bm25", "rerank", "encode-docs", "train"}
