"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_prints_the_commented_orders():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    assert "# 1.9996... 1.0002...\n" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    good, bad = lines[0].split()
    assert good.startswith("1.9996") and bad.startswith("1.0002"), (good, bad)
    assert lines[1:3] == ["None", "None {'confirmed'}"]
    assert lines[3].startswith("5 the dropped-complement defect is not "
                               "demonstrable"), lines[3]
