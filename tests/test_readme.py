"""The README's command lines and config block stay valid for this code."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

from ctrlab import cli
from ctrlab.harness import ExperimentConfig, parse_config_text

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.S | re.M)


def _ctrlab_commands() -> list[list[str]]:
    commands = []
    for block in _blocks("bash"):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["ctrlab"]:
                commands.append(argv[1:])
    return commands


def test_every_ctrlab_command_parses():
    commands = _ctrlab_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_config_block_is_the_default_config():
    (block,) = _blocks("ini")
    keys = [line.split("=", 1)[0] for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    assert sorted(keys) == sorted(ExperimentConfig().to_dict())
    assert parse_config_text(block) == ExperimentConfig()


def test_config_checks_list_names_every_checked_key():
    checks = README.split("A config is checked when it is built", 1)[1]
    checks = checks.split("Once the data is built", 1)[0]
    checked = [f.metadata["key"] for f in fields(ExperimentConfig) if f.metadata["check"]]
    assert [key for key in checked if f"`{key}`" not in checks] == []
