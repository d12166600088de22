"""Mutation-discipline lint: rule detection and the clean-tree gate.

Synthetic sources exercise each rule (CL000-CL005) and its exemptions;
the final test pins the real ``src/repro`` tree clean, which is the
same gate the CI ``audit-smoke`` job enforces.
"""

import os

import pytest

from repro.analysis.codelint import (
    CodeFinding,
    format_findings,
    lint_paths,
    lint_tree,
)


def _lint(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return lint_paths([str(path)])


def _rules(findings):
    return [finding.rule_id for finding in findings]


def test_cl000_syntax_error(tmp_path):
    findings = _lint(tmp_path, "src/repro/broken.py", "def nope(:\n")
    assert _rules(findings) == ["CL000"]


def test_cl001_protected_attribute_outside_owner(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/rogue.py",
        "def peek(pool):\n    return pool._residents\n",
    )
    assert _rules(findings) == ["CL001"]
    assert "_residents" in findings[0].message


def test_cl001_allowed_in_owning_module(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/core/blocks.py",
        "def peek(self):\n    return self._residents\n",
    )
    assert findings == []


def test_cl002_mutator_call_outside_journal(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/rogue.py",
        "def smash(table):\n    table.install_grant(1, None)\n",
    )
    assert _rules(findings) == ["CL002"]
    assert "install_grant" in findings[0].message


def test_cl002_bound_mutator_staged_outside_journal(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/rogue.py",
        "def stage(table, ops):\n    ops.append((table.install_grant, (1, None)))\n",
    )
    assert _rules(findings) == ["CL002"]


def test_cl002_allocator_commit_outside_the_one_door(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/rogue.py",
        "def sneak(allocator, plan):\n    allocator.commit(plan)\n",
    )
    assert _rules(findings) == ["CL002"]
    assert "commit" in findings[0].message
    assert "controller/controller.py" in findings[0].message


def test_cl002_allowed_in_journaled_path(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/controller/table_updater.py",
        "def apply(tables):\n    tables.install_grant(1, None)\n",
    )
    assert findings == []


def test_cl003_layering_violation(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/core/rogue.py",
        "from repro.controller.controller import ActiveRmtController\n",
    )
    assert _rules(findings) == ["CL003"]
    assert "repro.controller" in findings[0].message


def test_cl003_type_checking_guard_is_exempt(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/core/guarded.py",
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.controller.controller import ActiveRmtController\n",
    )
    assert findings == []


def test_cl003_deferred_import_is_exempt(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/core/deferred.py",
        "def late():\n"
        "    from repro.controller.controller import ActiveRmtController\n"
        "    return ActiveRmtController\n",
    )
    assert findings == []


def test_cl003_try_block_still_counts(tmp_path):
    findings = _lint(
        tmp_path,
        "src/repro/analysis/rogue.py",
        "try:\n"
        "    from repro.controller import controller\n"
        "except ImportError:\n"
        "    controller = None\n",
    )
    assert _rules(findings) == ["CL003"]


@pytest.mark.parametrize(
    "handler",
    [
        "except:\n        pass\n",
        "except Exception:\n        pass\n",
        "except Exception as exc:\n        return None\n",
        "except (ValueError, BaseException):\n        return None\n",
        "except builtins.Exception:\n        pass\n",
    ],
)
def test_cl004_broad_handler_that_swallows(tmp_path, handler):
    findings = _lint(
        tmp_path,
        "src/repro/rogue.py",
        "def run(work):\n    try:\n        work()\n    " + handler,
    )
    assert _rules(findings) == ["CL004"]
    assert findings[0].line == 4


@pytest.mark.parametrize(
    "handler",
    [
        "except Exception:\n        raise\n",
        "except BaseException as exc:\n        log(exc)\n        raise\n",
        "except Exception as exc:\n        log(exc)\n",
        "except Exception as exc:\n        raise RuntimeError() from exc\n",
        "except ValueError:\n        pass\n",
    ],
)
def test_cl004_handler_that_raises_reads_or_is_narrow(tmp_path, handler):
    findings = _lint(
        tmp_path,
        "src/repro/fine.py",
        "def run(work, log):\n    try:\n        work()\n    " + handler,
    )
    assert findings == []


@pytest.mark.parametrize(
    "statement",
    [
        "packet.instructions[0] = packet.instructions[0].with_executed()",
        "packet.instructions[:pc] = done[:pc]",
        "packet.instructions = []",
        "packet.instructions += extra",
        "first, result.packet.instructions[1] = pair",
    ],
)
def test_cl005_edit_of_the_instruction_view(tmp_path, statement):
    source = f"def mark(packet, pc, done, extra, pair, result):\n    {statement}\n"
    findings = _lint(tmp_path, "src/repro/switchsim/rogue.py", source)
    assert _rules(findings) == ["CL005"]
    assert "'code'" in findings[0].message
    # The packet layer owns the representation; reads and locals are fine.
    assert _lint(tmp_path, "src/repro/packets/rogue.py", source) == []
    reads = (
        "def run(packet, program):\n"
        "    instructions = list(packet.instructions)\n"
        "    instructions[0] = program.instructions[0]\n"
        "    packet.executed = 1\n"
    )
    assert _lint(tmp_path, "src/repro/switchsim/reader.py", reads) == []


def test_finding_str_and_formatting():
    finding = CodeFinding("CL001", "src/repro/x.py", 3, "nope")
    assert str(finding) == "src/repro/x.py:3: [CL001] nope"
    text = format_findings([finding], 5)
    assert "1 violation(s) across 5 file(s)" in text
    assert "x.py:3" in text


def test_lint_tree_skips_pycache(tmp_path):
    (tmp_path / "src/repro/__pycache__").mkdir(parents=True)
    (tmp_path / "src/repro/__pycache__/junk.py").write_text(
        "pool._residents\n", encoding="utf-8"
    )
    (tmp_path / "src/repro/ok.py").write_text("x = 1\n", encoding="utf-8")
    findings, files = lint_tree(str(tmp_path / "src"))
    assert findings == [] and files == 1


def test_repo_tree_is_clean():
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    findings, files = lint_tree(root)
    assert files > 90
    assert findings == [], "\n".join(str(f) for f in findings)
