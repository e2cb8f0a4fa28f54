"""The library example of README.md runs and prints what it says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_reliable():
    readme = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"^## Library example\n.*?```python\n(.*?)```", readme, re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README}:Library example", "exec"), {})
    assert out.getvalue() == "Reliable\n"
