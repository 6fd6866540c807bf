"""The README's Python examples run, and it names the public surface."""

import re
from pathlib import Path

import pytest

import surfemit

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


def test_readme_names_every_export():
    missing = [name for name in surfemit.__all__
               if name != "__version__"
               and not re.search(rf"\b{re.escape(name)}\b", README)]
    assert missing == []
