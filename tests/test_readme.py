"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    exists, alpha, beta = capsys.readouterr().out.split()
    assert exists == "True"
    assert float(alpha) == pytest.approx(16.0, abs=1e-9)
    assert float(beta) == pytest.approx(16.0, abs=1e-9)
