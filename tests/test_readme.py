"""README states the code's own values: its default run configuration and
its command table are checked against the code."""

import argparse
import json
import re
from dataclasses import asdict
from pathlib import Path

from sliceset.cli import RunConfig, build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end == -1 else README[start:end]


def test_readme_run_configuration_defaults_are_the_code_defaults():
    blocks = re.findall(r"```json\n(.*?)```", section("Run configuration"), re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == asdict(RunConfig())


def test_readme_command_table_names_exactly_the_subcommands():
    rows = re.findall(r"^\| `([a-z-]+)` \|", section("Commands"), re.M)
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(rows) == sorted(subparsers.choices)
