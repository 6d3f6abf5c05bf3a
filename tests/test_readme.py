"""Every ``python`` block of README.md runs, each in its own temporary directory."""
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"),
         {"__name__": "readme"})
