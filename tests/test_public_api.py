"""The package surface: the exported names and the README's library example."""

import contextlib
import io
import re
from pathlib import Path

import ddwave

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
    for gone in ("channel_matrix", "single_path_matrix", "ZeroPhase", "AfdmChirpPhase"):
        assert gone not in names
