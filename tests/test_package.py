"""README and the package agree on the package-level API."""

import re
from pathlib import Path

import carriersim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_exactly_the_exports():
    text = README.read_text(encoding="utf-8")
    used = set(re.findall(r"\bcs\.(\w+)", text))
    assert used, "README's library example no longer uses `cs.`"
    assert used <= set(carriersim.__all__)
    assert [name for name in carriersim.__all__
            if not re.search(rf"`{re.escape(name)}`", text)] == []
    assert all(hasattr(carriersim, name) for name in carriersim.__all__)
