"""README's Library example runs as documented.

The one python code block in README.md is executed as it stands.  Each of
its ``print`` lines carries the expected output as a trailing ``# ...``
comment, and the printed lines must equal those comments in order, so a
renamed or dropped export, or a change to what a documented call prints,
fails here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
PRINT_LINE = re.compile(r"^print\(.*\)\s+#\s*(.*)$")


def python_blocks(text: str):
    return re.findall(r"^```python\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_library_example_prints_its_comments():
    (code,) = python_blocks(README.read_text(encoding="utf-8"))
    expected = [match.group(1) for line in code.splitlines()
                if (match := PRINT_LINE.match(line))]
    assert len(expected) == code.count("print(") > 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
