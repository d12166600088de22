"""Mutation-discipline lint over the repository's own source tree.

The transactional control plane is only as trustworthy as the
discipline around it: every mutation of allocator pools or device
tables must flow through the journaled paths in
``core/transactions.py`` / ``controller/table_updater.py``, or the
undo log cannot reproduce (or reverse) what happened.  This module is
an AST-based lint that enforces exactly that, plus the package
layering the docstrings promise:

- **CL001** -- direct access to the protected internals of
  :class:`~repro.core.blocks.StagePool` or
  :class:`~repro.switchsim.tables.StageTable` (``_residents``,
  ``_grants``, ...) outside the modules that define them.
- **CL002** -- calls to state-mutating table/pool methods
  (``install_grant``, ``deactivate_fid``, ``load_residents``, ...)
  outside the journaled call sites allowlisted per method.
- **CL003** -- module-level imports that violate the layering
  (``switchsim`` below ``device`` below ``controller`` below
  ``fabric``/``experiments``; ``analysis`` never imports the
  controller or client at runtime).  ``TYPE_CHECKING`` blocks and
  function-local (deferred) imports are exempt, matching how the
  codebase breaks cycles on purpose.

Tests and benchmarks are exempt from CL001/CL002: white-box tests may
reach anywhere.  The CI ``audit-smoke`` job gates ``src/repro`` clean.
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Tuple

#: Protected attribute -> module suffixes (posix-style, relative to the
#: package root) allowed to touch it.  Everyone else must go through
#: the public, journal-friendly surface.
PROTECTED_ATTRS: Dict[str, Tuple[str, ...]] = {
    "_residents": ("core/blocks.py",),
    "_layout_cache": ("core/blocks.py",),
    "_grants": ("switchsim/tables.py",),
    "_translations": ("switchsim/tables.py",),
    "_tcam_used": ("switchsim/tables.py",),
}

#: Mutating method -> module suffixes allowed to call it.  The lists
#: name the defining module, its delegation adapters, and the journaled
#: control-plane paths -- nothing else.
MUTATOR_ALLOWLIST: Dict[str, Tuple[str, ...]] = {
    "install_grant": (
        "switchsim/tables.py",
        "switchsim/pipeline.py",
        "device/sim.py",
        "controller/table_updater.py",
        "faults/device.py",
    ),
    "remove_grant": (
        "switchsim/tables.py",
        "switchsim/pipeline.py",
        "device/sim.py",
        "controller/table_updater.py",
        "faults/device.py",
    ),
    "install_translation": (
        "switchsim/tables.py",
        "switchsim/pipeline.py",
        "device/sim.py",
        "controller/table_updater.py",
        "faults/device.py",
    ),
    "remove_translation": (
        "switchsim/tables.py",
        "switchsim/pipeline.py",
        "device/sim.py",
        "controller/table_updater.py",
        "faults/device.py",
    ),
    "deactivate_fid": (
        "switchsim/pipeline.py",
        "switchsim/switch.py",
        "device/sim.py",
        "controller/table_updater.py",
        "sim/provisioner.py",
        "faults/device.py",
    ),
    "reactivate_fid": (
        "switchsim/pipeline.py",
        "switchsim/switch.py",
        "device/sim.py",
        "controller/table_updater.py",
        "sim/provisioner.py",
        "faults/device.py",
    ),
    "scrub_registers": (
        "device/sim.py",
        "controller/table_updater.py",
        "faults/device.py",
    ),
    "load_residents": (
        "core/blocks.py",
        "core/transactions.py",
    ),
}

#: Package layering: importing package prefix -> package prefixes it
#: must never import at module level.  Mirrors the module docstrings'
#: promises (e.g. the verifier "must not import repro.controller at
#: runtime").
FORBIDDEN_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "repro.isa": ("repro.switchsim", "repro.core", "repro.device",
                  "repro.controller", "repro.client", "repro.fabric",
                  "repro.experiments", "repro.sim"),
    "repro.telemetry": ("repro.switchsim", "repro.core", "repro.device",
                        "repro.controller", "repro.client", "repro.fabric",
                        "repro.experiments", "repro.sim", "repro.apps"),
    "repro.switchsim": ("repro.device", "repro.controller", "repro.client",
                        "repro.fabric", "repro.experiments", "repro.sim"),
    "repro.core": ("repro.controller", "repro.client", "repro.fabric",
                   "repro.experiments", "repro.sim"),
    "repro.device": ("repro.controller", "repro.client", "repro.fabric",
                     "repro.experiments", "repro.sim"),
    "repro.faults": ("repro.controller", "repro.client", "repro.fabric",
                     "repro.experiments", "repro.sim"),
    "repro.analysis": ("repro.controller", "repro.client", "repro.fabric",
                       "repro.experiments", "repro.sim"),
    "repro.controller": ("repro.client", "repro.fabric",
                         "repro.experiments"),
    "repro.client": ("repro.fabric", "repro.experiments"),
    "repro.fabric": ("repro.experiments",),
}


@dataclasses.dataclass(frozen=True)
class CodeFinding:
    """One lint violation, anchored to a source line."""

    rule_id: str
    path: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


def _module_suffix(path: str) -> str:
    """Posix-style tail of *path* used for allowlist matching."""
    return path.replace(os.sep, "/")


def _is_allowed(path: str, allowlist: Tuple[str, ...]) -> bool:
    suffix = _module_suffix(path)
    return any(suffix.endswith(allowed) for allowed in allowlist)


def _module_name(path: str) -> Optional[str]:
    """Dotted module name of a source path under ``src/repro``."""
    parts = _module_suffix(path).split("/")
    if "repro" not in parts:
        return None
    tail = parts[parts.index("repro") :]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][:-3]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


def _is_type_checking_guard(node: ast.If) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:`` blocks."""
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _module_level_imports(
    tree: ast.Module,
) -> List[Tuple[int, str]]:
    """``(line, imported_module)`` pairs executed at import time.

    Walks module-level statements plus ``if``/``try`` bodies (those run
    at import time too), skipping ``TYPE_CHECKING`` guards; anything
    inside a function or class body is a deferred import and exempt.
    """
    found: List[Tuple[int, str]] = []
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                found.append((node.lineno, node.module))
        elif isinstance(node, ast.If):
            if not _is_type_checking_guard(node):
                pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body)
            pending.extend(node.orelse)
            pending.extend(node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)
        elif isinstance(node, (ast.With,)):
            pending.extend(node.body)
    return found


def _lint_file(path: str, source: str) -> List[CodeFinding]:
    findings: List[CodeFinding] = []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            CodeFinding(
                "CL000", path, exc.lineno or 0, f"syntax error: {exc.msg}"
            )
        ]
    # CL001 / CL002: attribute and call discipline.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            allowed = PROTECTED_ATTRS.get(node.attr)
            if allowed is not None and not _is_allowed(path, allowed):
                findings.append(
                    CodeFinding(
                        "CL001",
                        path,
                        node.lineno,
                        f"direct access to protected internal "
                        f"'{node.attr}' (owned by {allowed[0]}); use the "
                        "public journaled surface",
                    )
                )
            # A bound mutator staged for a later call is a call site too.
            allowed = MUTATOR_ALLOWLIST.get(node.attr)
            if allowed is not None and not _is_allowed(path, allowed):
                findings.append(
                    CodeFinding(
                        "CL002",
                        path,
                        node.lineno,
                        f"call to state mutator '{node.attr}()' "
                        "outside its journaled call sites "
                        f"({', '.join(allowed)})",
                    )
                )
    # CL003: module-level import layering.
    module = _module_name(path)
    if module is not None:
        forbidden: Tuple[str, ...] = ()
        for prefix, banned in FORBIDDEN_IMPORTS.items():
            if module == prefix or module.startswith(prefix + "."):
                forbidden = banned
                break
        for line, imported in _module_level_imports(tree):
            for banned_prefix in forbidden:
                if imported == banned_prefix or imported.startswith(
                    banned_prefix + "."
                ):
                    findings.append(
                        CodeFinding(
                            "CL003",
                            path,
                            line,
                            f"{module} imports {imported} at module "
                            "level, violating the package layering "
                            "(defer it into the function that needs it "
                            "or guard with TYPE_CHECKING)",
                        )
                    )
    findings.sort(key=lambda f: (f.line, f.rule_id))
    return findings


def lint_paths(paths: Iterable[str]) -> List[CodeFinding]:
    """Lint an explicit list of Python source files."""
    findings: List[CodeFinding] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            findings.extend(_lint_file(path, handle.read()))
    return findings


def lint_tree(root: str) -> Tuple[List[CodeFinding], int]:
    """Lint every ``.py`` file under *root*; returns (findings, files).

    Paths containing ``__pycache__`` are skipped.  *root* is typically
    ``src/repro`` -- tests and benchmarks are white-box by design and
    not held to the mutation discipline.
    """
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    return lint_paths(paths), len(paths)


def format_findings(findings: List[CodeFinding], files: int) -> str:
    """Human-readable summary for the CLI."""
    lines = [
        f"codelint: {len(findings)} violation(s) across {files} file(s)"
    ]
    lines.extend(str(finding) for finding in findings)
    return "\n".join(lines)
