"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    # the quickstart, then its true-nuisance example, which reuses its names
    assert len(blocks) == 2 and "prepare(dataset, candidates, plan, truth)" in blocks[1]
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
