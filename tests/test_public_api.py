"""The package surface: the exported names and the README's library example."""

import argparse
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import ddwave
from ddwave import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue() == "2.0 1.3\n"


def test_all_names_resolve_sorted_and_unique():
    names = ddwave.__all__
    for name in names:
        assert getattr(ddwave, name) is not None, name
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    # dense builders and prefix rules are internal: the waveform supplies the rule
    for gone in ("channel_matrix", "single_path_matrix", "ZeroPhase", "AfdmChirpPhase", "mimo_channel"):
        assert gone not in names


def test_readme_names_every_subcommand_and_config_field():
    text = README.read_text()
    subcommands = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    names = [*subcommands.choices, *(f.name for f in dataclasses.fields(ddwave.ScenarioConfig))]
    assert [name for name in names if f"`{name}`" not in text] == []
