"""README's CLI block lists every subcommand once, in table order, with
exactly its flags, each spelled at its default; and every config key its
retired list names is refused."""

import argparse
import dataclasses
import json
import re
import shlex
from pathlib import Path

import pytest

from lambertwave.cli import COMMANDS, RunConfig, _exit, build_parser, resolve_config
from lambertwave.errors import InputError

ROOT = Path(__file__).resolve().parents[1]

# taken by every subcommand, and set by no README line
COMMON = {"-h", "--help", "--config", "--out-dir"}


def _cli_block() -> list:
    """The argv of each line of the first fenced block under README's CLI
    heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## CLI\n"):]
    return [shlex.split(ln) for ln in section.split("```")[1].splitlines() if ln.strip()]


def test_readme_cli_block_lists_every_command():
    lines = _cli_block()
    assert {argv[0] for argv in lines} == {"lambertwave"}
    assert [argv[1] for argv in lines] == list(COMMANDS)


def test_readme_cli_block_spells_each_flag_at_its_default():
    ap = build_parser()
    subs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction)).choices
    for argv in _cli_block():
        command = argv[1]
        flags = [a for a in argv[2:] if a.startswith("--")]
        options = {opt for act in subs[command]._actions for opt in act.option_strings}
        assert len(flags) == len(set(flags)), command
        assert set(flags) == options - COMMON, command
        cfg = resolve_config(ap.parse_args(argv[1:]))
        assert dataclasses.replace(cfg, out_dir="") == RunConfig(), command


def _retired_keys() -> list:
    """The keys of README's bulleted list of retired config keys."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("these retired keys"):]
    bullets = section[section.index("\n* "):section.index("\n\n", section.index("\n* "))]
    return re.findall(r"`(\w+)`", bullets)


def test_readme_retired_keys_are_refused(tmp_path):
    keys = _retired_keys()
    assert {"fit_xmin", "fit_xmax", "fit_points", "gram_tol", "kpoints"} <= set(keys)
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    ap = build_parser()
    for key in keys:
        assert key not in fields, key
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: 1}))
        with pytest.raises(InputError, match=f"unknown key '{key}'") as exc:
            resolve_config(ap.parse_args(["lambert-table", "--config", str(config)]))
        assert _exit(exc.value)[0] == 2, key
