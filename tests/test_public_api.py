"""Every public name must be used by the package itself.

A name in ``casowron.__all__`` counts as used when some module other than
``__init__.py`` loads it as a name or an attribute.  Its own ``def``,
``class`` or assignment does not count, and neither do docstrings or
comments.
"""
import ast
from pathlib import Path

import casowron

# Checks of the paper's claims that only the acceptance tests call.
ACCEPTANCE_ONLY = ("sign_agreement_step", "transformed_family", "verify_binom_matrix_lemmas")


def _loaded_names() -> set:
    names = set()
    for path in Path(casowron.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package():
    used = _loaded_names()
    unused = sorted(n for n in casowron.__all__ if n not in used and n not in ACCEPTANCE_ONLY)
    assert unused == []


def test_acceptance_only_names_are_public_and_otherwise_unused():
    used = _loaded_names()
    for name in ACCEPTANCE_ONLY:
        assert name in casowron.__all__
        assert name not in used
