"""Meta-tests: the documentation contract of deliverable (e).

Every public module, class, function, and method in :mod:`repro` must
carry a docstring, and every package must re-export a coherent
``__all__``.  These tests make the "doc comments on every public item"
requirement mechanical rather than aspirational.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
EXAMPLES_DIR = REPO_ROOT / "examples"


def iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(iter_modules())


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


def public_objects(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "").startswith("repro"):
                yield name, obj


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_public_objects_have_docstrings(module):
    undocumented = [name for name, obj in public_objects(module)
                    if not (obj.__doc__ and obj.__doc__.strip())]
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}")


@pytest.mark.parametrize("module", MODULES,
                         ids=lambda m: m.__name__)
def test_public_methods_have_docstrings(module):
    undocumented = []
    for class_name, cls in public_objects(module):
        if not inspect.isclass(cls):
            continue
        for method_name, member in inspect.getmembers(cls):
            if method_name.startswith("_"):
                continue
            if not (inspect.isfunction(member)
                    or isinstance(member, property)):
                continue
            owner = getattr(member, "__module__", None) or getattr(
                getattr(member, "fget", None), "__module__", None)
            if not (owner or "").startswith("repro"):
                continue
            doc = (member.__doc__ if not isinstance(member, property)
                   else (member.fget.__doc__ if member.fget else None))
            if not (doc and doc.strip()):
                undocumented.append(f"{class_name}.{method_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}")


@pytest.mark.parametrize("module", [m for m in MODULES
                                    if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_entries_resolve(module):
    for name in module.__all__:
        assert hasattr(module, name), (
            f"{module.__name__}.__all__ lists missing name {name!r}")


# ---------------------------------------------------------------------------
# Doc-coverage contract: the handbook must stay connected.  Every page
# under docs/ is reachable from the README, and every example script is
# mentioned in at least one document, so neither can silently rot.
# ---------------------------------------------------------------------------


def doc_pages():
    return sorted(DOCS_DIR.glob("*.md"))


def example_scripts():
    return sorted(p for p in EXAMPLES_DIR.glob("*.py")
                  if p.name != "__init__.py")


@pytest.mark.parametrize("page", doc_pages(), ids=lambda p: p.name)
def test_readme_links_every_doc_page(page):
    readme = (REPO_ROOT / "README.md").read_text()
    assert f"docs/{page.name}" in readme, (
        f"docs/{page.name} is not linked from README.md — add it to the"
        " documentation index")


@pytest.mark.parametrize("script", example_scripts(),
                         ids=lambda p: p.name)
def test_every_example_is_mentioned_in_a_doc(script):
    corpus = (REPO_ROOT / "README.md").read_text()
    for page in doc_pages():
        corpus += page.read_text()
    assert script.name in corpus, (
        f"examples/{script.name} is not mentioned in README.md or any"
        " docs/*.md page")


def test_readme_relative_links_resolve():
    """Every relative markdown link in the README points at a real file."""
    readme = (REPO_ROOT / "README.md").read_text()
    broken = []
    for target in re.findall(r"\]\(([^)#]+)(?:#[^)]*)?\)", readme):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not (REPO_ROOT / target).exists():
            broken.append(target)
    assert not broken, f"README.md links to missing files: {broken}"


# ---------------------------------------------------------------------------
# The handbook names only code that exists: every backticked dotted
# ``repro.…`` name resolves to a module or to an attribute of one.
# ---------------------------------------------------------------------------
DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def handbook():
    return [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md",
            REPO_ROOT / "EXPERIMENTS.md", *doc_pages()]


def resolves(dotted):
    """True when ``dotted`` is a module, or a module's attribute path."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_docs_name_only_code_that_exists():
    dangling = [f"{page.name}: {name}" for page in handbook()
                for name in DOTTED_NAME.findall(page.read_text())
                if not resolves(name)]
    assert not dangling, f"docs name code that does not exist: {dangling}"
