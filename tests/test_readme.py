"""The code the README shows runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks(title):
    """The fenced `python` blocks of the README section `## <title>`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return re.findall(r"```python\n(.*?)```",
                      text[start:end if end >= 0 else len(text)], re.S)


def test_library_entry_points_block_runs():
    block, = python_blocks("Library entry points")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["st"].conn.gamma_values().shape == (2, 2, 2)
