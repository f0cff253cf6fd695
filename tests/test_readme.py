"""README.md stays true to the code: its config defaults and its library imports."""
from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from mathsynth.config import RunConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block_after(marker: str, language: str) -> str:
    """The first ```language fenced block after `marker` in the README."""
    start = README.index(marker)
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match, f"no {language} block after {marker!r}"
    return match.group(1)


def test_the_defaults_shown_are_the_config_defaults():
    defaults = {
        f.name: dataclasses.asdict(f.default) if dataclasses.is_dataclass(f.default) else f.default
        for f in dataclasses.fields(RunConfig)
    }
    shown = json.loads(_block_after("Defaults shown:", "json"))
    assert shown == json.loads(json.dumps(defaults))  # tuples as the JSON arrays they load from


def test_the_library_use_imports_resolve():
    block = _block_after("## Library use", "python")
    exec(compile(block, "README.md", "exec"), {})
