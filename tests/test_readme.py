"""The README's examples run: a stale example fails here, not in a reader's hands."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md, python block {i}", "exec"), {})  # a fresh namespace per block
