"""Every public name earns its place by a use outside the test suite.

A name in ``volrepair.__all__`` must appear in a library module other than
the package ``__init__`` and its own home module, in the benchmark under
``bench/``, or in the README. Test-only helpers belong in ``tests/``.
"""

import re
from pathlib import Path

import volrepair

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "volrepair"


def test_every_export_is_used_outside_the_tests():
    sources = {
        path: path.read_text()
        for path in [
            *SRC.glob("*.py"),
            *(ROOT / "bench").glob("*.py"),
            *(ROOT / "bench").glob("*.md"),
            ROOT / "README.md",
        ]
        if path.name != "__init__.py"
    }
    unused = []
    for name in volrepair.__all__:
        home = SRC / (getattr(volrepair, name).__module__.rsplit(".", 1)[-1] + ".py")
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for path, text in sources.items() if path != home):
            unused.append(name)
    assert not unused, f"exported but used only by the tests: {unused}"

