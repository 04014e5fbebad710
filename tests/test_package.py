import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import ubb84

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", ubb84.__all__)
def test_public_name_is_its_home_object(name):
    value = getattr(ubb84, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert value.__module__.startswith("ubb84.")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ubb84.no_such_name  # noqa: B018


def test_readme_library_snippet_runs():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2
