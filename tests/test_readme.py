"""The README's code runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    # the first Python block under "## Library use", run in a fresh namespace
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name}: Library use", "exec"), {})
