#!/usr/bin/env python
"""Docs-check: keep README/PERFORMANCE/ROBUSTNESS commands from rotting.

Statically verifies every checkable claim in the documentation:

* fenced ``python`` code blocks must parse, every attribute chain
  rooted at a name imported from ``repro`` (``from repro import nn`` /
  ``nn.set_compute_dtype``) must resolve, and a call to one must pass
  only keywords its signature accepts;
* ``python <script>`` / ``python -m <module>`` lines in fenced ``bash``
  blocks must point at an existing script / importable module, and any
  ``--flags`` they pass must exist in that module's CLI source;
* ``pytest`` invocations must reference existing test paths and only
  markers declared in ``pytest.ini``;
* ``REPRO_*`` environment knobs (e.g. ``REPRO_SCALE``,
  ``REPRO_COMPUTE_DTYPE``) mentioned anywhere in the docs must be read
  somewhere in the Python source tree;
* relative paths mentioned in inline code or links must exist;
* dotted ``repro.*`` references in inline code must import (and, for
  ``repro.mod.attr`` forms, resolve the attribute);
* Sphinx cross-references (``:func:``, ``:class:``, ``:mod:``,
  ``:meth:``, ``:attr:``, ``:data:``, ``:exc:``) to ``repro.*`` names in
  the docstrings under ``src/`` must resolve the same way.

Run from the repo root (or let ``tests/test_docs.py`` run it as part
of the tier-1 suite):

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 means every documented command checks out; failures list
one ``file: problem`` line each.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
import re
import shlex
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_FILES = ("README.md", os.path.join("docs", "PERFORMANCE.md"),
             os.path.join("docs", "ROBUSTNESS.md"),
             os.path.join("docs", "SERVING.md"))

_FENCE = re.compile(r"^```(\w*)\s*$")
_INLINE_CODE = re.compile(r"`([^`\n]+)`")
_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)\)")
_DOTTED = re.compile(r"^repro(\.\w+)+$")
_ENV_KNOB = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
#: A Sphinx role targeting a ``repro.*`` name: ``:func:`repro.x.f```,
#: ``:class:`~repro.x.C```, or ``:meth:`title <repro.x.C.m>```.
_SPHINX_REF = re.compile(
    r":(?:func|class|mod|meth|attr|data|exc):`(?:[^`<]*<)?[~!]?"
    r"(repro(?:\.\w+)+)>?`")

#: Directories scanned for reads of documented ``REPRO_*`` env knobs.
_SOURCE_DIRS = ("src", "tests", "benchmarks", "tools")


def _fenced_blocks(text: str) -> list[tuple[str, str]]:
    """``(language, body)`` for every fenced code block in ``text``."""
    blocks: list[tuple[str, str]] = []
    language, body = None, []
    for line in text.splitlines():
        fence = _FENCE.match(line)
        if fence is not None:
            if language is None:
                language, body = fence.group(1) or "", []
            else:
                blocks.append((language, "\n".join(body)))
                language = None
        elif language is not None:
            body.append(line)
    return blocks


def _exists(path: str) -> bool:
    return os.path.exists(os.path.join(REPO_ROOT, path))


def _importable(module: str) -> bool:
    try:
        importlib.import_module(module)
        return True
    except Exception:
        return False


_MISSING = object()


def _lookup(name: str):
    """The object dotted ``name`` names — a module, or an attribute
    chain under its longest importable module prefix — else
    ``_MISSING``.  An annotation-only dataclass field resolves to
    ``None``."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except Exception:
            continue
        for attr in parts[split:]:
            if hasattr(obj, attr):
                obj = getattr(obj, attr)
            elif attr in getattr(obj, "__annotations__", {}):
                obj = None  # a field without a class-level default
            else:
                return _MISSING
        return obj
    return _MISSING


def _resolves(name: str) -> bool:
    return _lookup(name) is not _MISSING


def _unknown_keywords(name: str, keywords: list[str]) -> list[str]:
    """Keywords from ``keywords`` that the callable ``name`` resolves to
    does not accept (none when it takes ``**kwargs`` or has no
    inspectable signature)."""
    obj = _lookup(name)
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return []
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return []
    accepted = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
    return [keyword for keyword in keywords if keyword not in accepted]


def _dotted(node: ast.expr) -> list[str] | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def _check_python_block(doc: str, body: str, errors: list[str]) -> None:
    """A python block must parse, and what it uses of ``repro`` must
    exist: imported names, every attribute chain rooted at one, and the
    keyword arguments of every call to one."""
    try:
        tree = ast.parse(body, f"<{doc} python block>")
    except SyntaxError as exc:
        errors.append(f"{doc}: python block does not compile: {exc}")
        return
    bound: dict[str, str] = {}  # local name -> dotted repro path
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["repro"] = "repro"
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] == "repro"):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
    def chain(node: ast.expr) -> str | None:
        parts = _dotted(node)
        if parts and parts[0] in bound:
            return ".".join([bound[parts[0]], *parts[1:]])
        return None

    chains = set(bound.values())
    calls: list[tuple[str, list[str]]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and chain(node):
            chains.add(chain(node))
        elif isinstance(node, ast.Call) and chain(node.func):
            calls.append((chain(node.func),
                          [k.arg for k in node.keywords if k.arg]))
    broken = sorted(chain for chain in chains if not _resolves(chain))
    for name in broken:
        if not any(name.startswith(other + ".") for other in broken):
            errors.append(f"{doc}: python block uses {name!r}, which "
                          f"does not resolve")
    for name, keywords in calls:
        for keyword in _unknown_keywords(name, keywords):
            errors.append(f"{doc}: python block passes {keyword}= to "
                          f"{name!r}, which does not accept it")


def _declared_markers() -> set[str]:
    markers = set()
    try:
        with open(os.path.join(REPO_ROOT, "pytest.ini")) as handle:
            in_markers = False
            for line in handle:
                if line.strip().startswith("markers"):
                    in_markers = True
                    continue
                if in_markers:
                    if line[:1].isspace() and line.strip():
                        markers.add(line.strip().split(":")[0])
                    else:
                        in_markers = False
    except OSError:
        pass
    return markers


_ENV_KNOBS_IN_SOURCE: set[str] | None = None


def _env_knobs_in_source() -> set[str]:
    """Every ``REPRO_*`` name appearing in the Python source tree."""
    global _ENV_KNOBS_IN_SOURCE
    if _ENV_KNOBS_IN_SOURCE is None:
        knobs: set[str] = set()
        for source_dir in _SOURCE_DIRS:
            root = os.path.join(REPO_ROOT, source_dir)
            for dirpath, _dirnames, filenames in os.walk(root):
                for filename in filenames:
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    with open(path, encoding="utf-8") as handle:
                        knobs.update(_ENV_KNOB.findall(handle.read()))
        _ENV_KNOBS_IN_SOURCE = knobs
    return _ENV_KNOBS_IN_SOURCE


def _check_env_knobs(doc: str, text: str, errors: list[str]) -> None:
    """Documented ``REPRO_*`` env knobs must be read by the source."""
    known = _env_knobs_in_source()
    for knob in sorted(set(_ENV_KNOB.findall(text))):
        if knob not in known:
            errors.append(
                f"{doc}: env knob {knob!r} is not read anywhere in "
                f"{'/'.join(_SOURCE_DIRS)}")


def _cli_flags_exist(module: str, flags: list[str]) -> list[str]:
    """Flags from ``flags`` that the module's CLI source never mentions."""
    spec = importlib.util.find_spec(module)
    if spec is None or not spec.origin or not os.path.exists(spec.origin):
        return []
    origin = spec.origin
    if os.path.basename(origin) == "__init__.py":
        main = os.path.join(os.path.dirname(origin), "__main__.py")
        if os.path.exists(main):
            origin = main
    with open(origin, encoding="utf-8") as handle:
        source = handle.read()
    return [flag for flag in flags if flag not in source]


def _check_bash_line(doc: str, line: str, errors: list[str]) -> None:
    line = line.strip()
    if not line or line.startswith("#"):
        return
    try:
        tokens = shlex.split(line)
    except ValueError:
        errors.append(f"{doc}: unparseable command {line!r}")
        return
    # Strip leading VAR=value environment assignments.
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        tokens = tokens[1:]
    if not tokens:
        return
    program = tokens[0]
    if program == "export":
        return
    if program in ("python", "python3"):
        if len(tokens) >= 3 and tokens[1] == "-m":
            module = tokens[2]
            if module == "pytest":
                _check_pytest(doc, tokens[3:], errors)
                return
            if not _importable(module):
                errors.append(f"{doc}: module {module!r} is not importable")
                return
            flags = [t for t in tokens[3:] if t.startswith("--")]
            for missing in _cli_flags_exist(module, flags):
                errors.append(
                    f"{doc}: flag {missing!r} not found in {module}'s CLI")
        elif len(tokens) >= 2 and not tokens[1].startswith("-"):
            if not _exists(tokens[1]):
                errors.append(f"{doc}: script {tokens[1]!r} does not exist")
    elif program == "pytest":
        _check_pytest(doc, tokens[1:], errors)
    elif program == "pip":
        if "-e" in tokens and not _exists("setup.py"):
            errors.append(f"{doc}: pip -e target has no setup.py")


def _check_pytest(doc: str, args: list[str], errors: list[str]) -> None:
    markers = _declared_markers()
    expect_marker = False
    for token in args:
        if expect_marker:
            for marker in re.findall(r"\w+", token):
                if marker not in markers and marker not in ("not", "and", "or"):
                    errors.append(f"{doc}: pytest marker {marker!r} undeclared")
            expect_marker = False
        elif token == "-m":
            expect_marker = True
        elif not token.startswith("-") and ("/" in token or token.endswith(".py")):
            if not _exists(token.split("::")[0]):
                errors.append(f"{doc}: pytest path {token!r} does not exist")


def _check_inline(doc: str, text: str, errors: list[str]) -> None:
    for match in _INLINE_CODE.finditer(text):
        code = match.group(1).strip()
        if _DOTTED.match(code):
            if not _resolves(code):
                errors.append(f"{doc}: reference {code!r} does not resolve")
        elif ("/" in code or code.endswith((".py", ".md", ".json", ".ini"))) \
                and " " not in code and not code.startswith("-"):
            if re.fullmatch(r"[\w./-]+", code) and not _exists(code):
                errors.append(f"{doc}: path {code!r} does not exist")
    for match in _MD_LINK.finditer(text):
        target = match.group(1)
        if "://" not in target and not _exists(target):
            errors.append(f"{doc}: link target {target!r} does not exist")


def check_docs(doc_files=DOC_FILES) -> list[str]:
    """All problems found across ``doc_files`` (empty list = clean)."""
    errors: list[str] = []
    for doc in doc_files:
        path = os.path.join(REPO_ROOT, doc)
        if not os.path.exists(path):
            errors.append(f"{doc}: documentation file missing")
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for language, body in _fenced_blocks(text):
            if language == "python":
                _check_python_block(doc, body, errors)
            elif language in ("bash", "sh", "shell", ""):
                for line in body.splitlines():
                    _check_bash_line(doc, line, errors)
        # Strip fences so inline checks do not re-scan block bodies.
        stripped = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        _check_inline(doc, stripped, errors)
        # Env knobs are checked in the full text: they appear both
        # inline (`REPRO_COMPUTE_DTYPE=float32` CI leg) and in bash
        # blocks (`REPRO_SCALE=small pytest ...`).
        _check_env_knobs(doc, text, errors)
    return errors


def check_source_refs(source_dir: str = "src") -> list[str]:
    """Dangling ``repro.*`` Sphinx cross-references under ``source_dir``."""
    errors: list[str] = []
    root = os.path.join(REPO_ROOT, source_dir)
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for match in _SPHINX_REF.finditer(text):
                if not _resolves(match.group(1)):
                    line = text.count("\n", 0, match.start()) + 1
                    errors.append(
                        f"{os.path.relpath(path, REPO_ROOT)}:{line}: "
                        f"cross-reference {match.group(1)!r} does not resolve")
    return errors


def main() -> int:
    errors = check_docs() + check_source_refs()
    if errors:
        print(f"docs-check: {len(errors)} problem(s)")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"docs-check: OK ({', '.join(DOC_FILES)}, src/ cross-references)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
