"""The README's library sketch runs as written, so a name dropped from the API
but still in the docs fails the suite."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3  # one line per decoded frame
