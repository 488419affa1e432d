"""The README's Python example runs as printed."""

import os
import re


def test_python_api_example_runs(capsys):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Python API in thirty seconds\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "4 1"
