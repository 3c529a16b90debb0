import ast
from pathlib import Path

import pytest

import alliancelib

# pyproject promises Python 3.10, the oldest version CI runs.
OLDEST = (3, 10)


@pytest.mark.parametrize(
    "path", sorted(Path(alliancelib.__file__).parent.rglob("*.py")), ids=lambda p: p.name
)
def test_every_module_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(), str(path), feature_version=OLDEST)


def test_newer_syntax_is_refused():
    # `except*` came in 3.11, so the check above would catch it.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)
