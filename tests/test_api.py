import re
import types
from pathlib import Path

import hdqkd

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names() -> set[str]:
    """The names the bullets of README's "Python API" section document:
    the backquoted names before each bullet's first colon."""
    section = README.read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* (.*(?:\n  .*)*)", section, re.M)
    return {name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet.split(": ")[0])}


def test_hdqkd_reexports_exactly_the_readme_api_list():
    exported = {
        name for name, value in vars(hdqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == readme_api_names()
