"""The capsule verifier: rule detection, golden reports, integration.

Covers the three integration points (compiler, controller admission,
lint CLI), every defect class with its distinct rule ID, and the two
key safety regressions: ``verify="off"`` leaves the admission path
untouched, and a strict rejection leaves allocator and switch state
byte-identical to before the attempt.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ActiveRmtController,
    ActiveSwitch,
    VerificationError,
    VerifyMode,
    compile_mutant,
)
from repro.analysis import (
    RULES,
    analyze_program,
    catalog_reports,
    lint_catalog,
    verify_plan,
)
from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.dataflow import MarValue, analyze_dataflow
from repro.client import ActiveCompiler
from repro.core.constraints import AccessPattern
from repro.core.transactions import AllocationPlan
from repro.isa import assemble
from repro.packets import (
    ActivePacket,
    AllocationResponseHeader,
    MacAddress,
    StageRegion,
)
from repro.switchsim import SwitchConfig
from repro.telemetry import MetricsRegistry

from tests.test_transactions import (
    ENTRY_POINTS,
    admit_via,
    assert_entry_points_agree,
    outcome_fingerprint,
)

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

#: A hash-translated single-access counter (always verifier-clean).
COUNTER = """
MBR_LOAD $0
COPY_HASHDATA_MBR
HASH
ADDR_MASK
ADDR_OFFSET
MEM_INCREMENT
RETURN
"""


def _switch():
    sw = ActiveSwitch()
    sw.register_host(CLIENT, 1)
    sw.register_host(SERVER, 2)
    return sw


def _counter_program(name="counter"):
    return assemble(COUNTER, name=name)


def _counter_pattern(program, demand=2):
    return AccessPattern.from_program(
        program, demands=[demand], name=program.name
    )


# ----------------------------------------------------------------------
# Rule catalog
# ----------------------------------------------------------------------


def test_rule_catalog_ids_are_stable():
    assert sorted(RULES) == [f"ARMT{i:03d}" for i in range(1, 16)]
    for rule_id, rule in RULES.items():
        assert rule.rule_id == rule_id
        assert rule.title and rule.description


def test_verify_mode_coerce():
    assert VerifyMode.coerce("strict") is VerifyMode.STRICT
    assert VerifyMode.coerce("WARN") is VerifyMode.WARN
    assert VerifyMode.coerce(VerifyMode.OFF) is VerifyMode.OFF
    with pytest.raises(ValueError):
        VerifyMode.coerce("paranoid")


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------


def test_cfg_branch_edges_and_reachability():
    program = assemble(
        """
        CJUMP @hit
        DROP
        hit: RETURN
        """
    )
    graph = ControlFlowGraph.build(program)
    assert graph.successors[1] == (2, 3)
    assert graph.successors[2] == ()  # DROP exits
    assert graph.successors[3] == ()
    assert graph.reachable == frozenset({1, 2, 3})


def test_cfg_ujump_skips_fallthrough():
    program = assemble(
        """
        UJUMP @end
        DROP
        end: RETURN
        """
    )
    graph = ControlFlowGraph.build(program)
    assert graph.successors[1] == (3,)
    assert 2 not in graph.reachable
    assert graph.unreachable_positions(program) == [2]


# ----------------------------------------------------------------------
# One test per defect class, distinct rule IDs
# ----------------------------------------------------------------------


def test_armt001_unreachable_instruction():
    program = assemble("UJUMP @end\nDROP\nend: RETURN")
    report = analyze_program(program)
    assert "ARMT001" in report.rule_ids()
    (finding,) = [f for f in report.findings if f.rule_id == "ARMT001"]
    assert finding.position == 2
    assert finding.severity.value == "warning"


def test_armt001_ignores_dead_nops():
    program = assemble("UJUMP @end\nNOP\nend: RETURN")
    report = analyze_program(program)
    assert "ARMT001" not in report.rule_ids()


def test_armt002_undefined_mbr_read():
    program = assemble("CRET\nRETURN")  # CRET reads MBR at position 1
    report = analyze_program(program)
    assert "ARMT002" in report.rule_ids()


def test_armt002_hash_over_empty_hashdata():
    program = assemble("HASH\nRETURN")
    report = analyze_program(program)
    messages = [
        f.message for f in report.findings if f.rule_id == "ARMT002"
    ]
    assert any("empty hashdata" in m for m in messages)


def test_armt002_must_analysis_joins_paths():
    # MBR is written on the fall-through path only; the join at the
    # label target must treat it as maybe-unwritten.
    program = assemble(
        """
        CJUMPI @skip
        MBR_LOAD $1
        skip: MBR_STORE
        RETURN
        """
    )
    report = analyze_program(program)
    positions = [
        f.position for f in report.findings if f.rule_id == "ARMT002"
    ]
    assert 3 in positions  # MBR_STORE may read the parser's zero


def test_armt003_access_outside_granted_region():
    program = _counter_program()
    pattern = _counter_pattern(program)
    plan = AllocationPlan(fid=9, pattern=pattern, feasible=True)
    report = verify_plan(program, pattern, plan)
    assert "ARMT003" in report.rule_ids()
    assert report.has_errors


def test_armt004_recirculation_overflow():
    config = SwitchConfig(num_stages=4, ingress_stages=2, max_recirculations=1)
    program = assemble("\n".join(["NOP"] * 11 + ["RETURN"]))
    report = analyze_program(program, config)
    (finding,) = [f for f in report.findings if f.rule_id == "ARMT004"]
    assert finding.severity.value == "error"


def test_armt005_ingress_op_in_egress_half():
    program = assemble("\n".join(["NOP"] * 10 + ["RTS", "RETURN"]))
    report = analyze_program(program)  # RTS at position 11, egress half
    (finding,) = [f for f in report.findings if f.rule_id == "ARMT005"]
    assert finding.position == 11
    assert finding.severity.value == "warning"


def test_armt006_pattern_mismatch():
    program = _counter_program()
    honest = _counter_pattern(program)
    liar = AccessPattern(
        program_length=len(program),
        lower_bounds=(2, 5),
        min_distances=(2, 3),
        demands=(1, 1),
        name="liar",
    )
    report = analyze_program(program, pattern=liar)
    assert "ARMT006" in report.rule_ids()
    assert analyze_program(program, pattern=honest).acceptable(
        VerifyMode.STRICT
    )


def test_armt007_raw_hash_address_is_error():
    program = assemble(
        "MBR_LOAD $0\nCOPY_HASHDATA_MBR\nHASH\nMEM_READ\nRETURN"
    )
    report = analyze_program(program)
    (finding,) = [f for f in report.findings if f.rule_id == "ARMT007"]
    assert finding.severity.value == "error"
    assert report.has_errors


def test_armt007_masked_but_unoffset_is_warning():
    program = assemble(
        "MBR_LOAD $0\nCOPY_HASHDATA_MBR\nHASH\nADDR_MASK\nMEM_READ\nRETURN"
    )
    report = analyze_program(program)
    (finding,) = [f for f in report.findings if f.rule_id == "ARMT007"]
    assert finding.severity.value == "warning"
    assert not report.has_errors


def test_armt008_translation_outside_window():
    # ADDR_MASK/ADDR_OFFSET at positions 4-5, access at 11; a grant at
    # stage 11 only puts the translation window at stages 8-11.
    program = assemble(
        "MBR_LOAD $0\nCOPY_HASHDATA_MBR\nHASH\nADDR_MASK\nADDR_OFFSET\n"
        + "NOP\n" * 5
        + "MEM_INCREMENT\nRETURN"
    )
    response = AllocationResponseHeader.from_map({11: StageRegion(0, 1024)})
    with pytest.raises(VerificationError) as excinfo:
        compile_mutant(program, response, demands=[2], verify="strict")
    assert "ARMT008" in excinfo.value.report.rule_ids()


def test_armt009_arg_address_is_info_only():
    program = assemble("MAR_LOAD $2\nMEM_READ\nRETURN")
    report = analyze_program(program)
    (finding,) = [f for f in report.findings if f.rule_id == "ARMT009"]
    assert finding.severity.value == "info"
    assert report.acceptable(VerifyMode.STRICT)


def test_translated_hash_address_is_silent():
    report = analyze_program(_counter_program())
    flow = analyze_dataflow(_counter_program())
    assert flow.mar_at(6) is MarValue.TRANSLATED
    assert report.clean


# ----------------------------------------------------------------------
# Golden reports for the bundled apps (the lint contract)
# ----------------------------------------------------------------------


def test_golden_reports_for_bundled_apps():
    reports = catalog_reports()
    assert sorted(reports) == [
        "cache",
        "heavy-hitter",
        "lb-routing",
        "load-balancer",
    ]

    cache = reports["cache"]
    assert cache.rule_ids() == ("ARMT009", "ARMT009", "ARMT009")
    assert [f.position for f in cache.findings] == [2, 5, 9]

    hh = reports["heavy-hitter"]
    assert hh.rule_ids() == ("ARMT009",) * 4
    assert [f.position for f in hh.findings] == [16, 22, 26, 36]

    lb = reports["load-balancer"]
    assert lb.rule_ids() == ("ARMT009", "ARMT009")
    assert [f.position for f in lb.findings] == [2, 7]

    assert reports["lb-routing"].clean

    for report in reports.values():
        assert not report.has_errors
        assert not report.warnings


def test_lint_catalog_output_and_exit_code():
    text, payload, exit_code = lint_catalog()
    assert exit_code == 0
    assert "4 program(s) audited: 0 error(s)" in text
    assert payload["summary"]["programs"] == 4
    assert payload["summary"]["errors"] == 0
    assert set(payload["programs"]) == {
        "cache",
        "heavy-hitter",
        "lb-routing",
        "load-balancer",
    }


def test_lint_cli_entry(tmp_path, capsys):
    from repro.experiments.cli import main

    out = tmp_path / "report.json"
    assert main(["lint", "--report-out", str(out)]) == 0
    assert "program(s) audited" in capsys.readouterr().out
    import json

    payload = json.loads(out.read_text())
    assert payload["summary"]["errors"] == 0


# ----------------------------------------------------------------------
# Compiler integration
# ----------------------------------------------------------------------


def test_compiler_warn_mode_attaches_report():
    program = _counter_program()
    response = AllocationResponseHeader.from_map({6: StageRegion(0, 1024)})
    synthesized = compile_mutant(program, response, demands=[2])
    assert synthesized.report is not None
    assert not synthesized.report.has_errors


def test_compiler_off_mode_skips_analysis():
    program = _counter_program()
    response = AllocationResponseHeader.from_map({6: StageRegion(0, 1024)})
    synthesized = compile_mutant(program, response, demands=[2], verify="off")
    assert synthesized.report is None


def test_compiler_strict_rejects_raw_hash_program():
    program = assemble(
        "MBR_LOAD $0\nCOPY_HASHDATA_MBR\nHASH\nMEM_READ\nRETURN",
        name="raw-hash",
    )
    response = AllocationResponseHeader.from_map({4: StageRegion(0, 1024)})
    with pytest.raises(VerificationError) as excinfo:
        compile_mutant(program, response, demands=[1], verify="strict")
    assert "ARMT007" in excinfo.value.report.rule_ids()
    # The same compile goes through in warn mode, report attached.
    warn = compile_mutant(program, response, demands=[1], verify="warn")
    assert "ARMT007" in warn.report.rule_ids()


def test_compiler_analyze_is_a_pure_lint():
    compiler = ActiveCompiler(SwitchConfig())
    report = compiler.analyze(_counter_program())
    assert report.clean


# ----------------------------------------------------------------------
# Controller integration
# ----------------------------------------------------------------------


def _liar_program():
    """Three accesses where the cache pattern the client requests has
    four -- the program disagrees with its own admission."""
    return assemble(
        "MAR_LOAD $2\nMEM_READ\nNOP\nMEM_READ\nNOP\nMEM_READ\nRETURN",
        name="liar",
    )


def _liar_pattern():
    return AccessPattern(
        program_length=9,
        lower_bounds=(2, 4, 6, 8),
        min_distances=(2, 2, 2, 2),
        demands=(1, 1, 1, 1),
        name="liar",
    )


def _allocator_fingerprint(controller):
    allocator = controller.allocator
    return (
        allocator.version,
        sorted(allocator.apps),
        {
            stage: pool.export_residents()
            for stage, pool in allocator.pools.items()
        },
    )


def test_controller_warn_mode_admits_and_reports():
    controller = ActiveRmtController(_switch(), verify="warn")
    program = _counter_program()
    report = controller.admit(
        fid=1, pattern=_counter_pattern(program), program=program
    )
    assert report.success
    assert report.verification is not None
    assert not report.verification.has_errors


def test_controller_strict_rejects_before_any_mutation():
    outcomes = {}
    for entry in ENTRY_POINTS:
        switch = _switch()
        controller = ActiveRmtController(switch, verify="strict")
        before = _allocator_fingerprint(controller)
        report = admit_via(
            controller, entry, 3, _liar_pattern(), program=_liar_program()
        )
        assert not report.success
        assert report.reason.startswith("verifier rejected:")
        assert report.verification.has_errors
        # Nothing was committed: allocator state is untouched and no
        # grant or translation entry reached the switch.
        assert _allocator_fingerprint(controller) == before
        assert 3 not in controller.allocator.apps
        for stage in range(1, switch.config.num_stages + 1):
            table = switch.pipeline.stage(stage).table
            assert table.grant_for(3) is None
            assert table.translation_for(3) is None
        outcomes[entry] = outcome_fingerprint(controller, report)
    # One commit path: the rejection is the same through every entry.
    assert_entry_points_agree(outcomes)


def test_controller_strict_still_admits_clean_programs():
    controller = ActiveRmtController(_switch(), verify="strict")
    program = _counter_program()
    report = controller.admit(
        fid=2, pattern=_counter_pattern(program), program=program
    )
    assert report.success
    assert 2 in controller.allocator.apps


def test_controller_warn_mode_admits_lying_program():
    # Warn mode records the findings but never blocks the admission.
    controller = ActiveRmtController(_switch(), verify="warn")
    report = controller.admit(
        fid=4, pattern=_liar_pattern(), program=_liar_program()
    )
    assert report.success
    assert report.verification.has_errors


def test_controller_off_mode_matches_programless_admission():
    """``verify="off"`` must be indistinguishable from the seed path."""
    program = _counter_program()
    pattern = _counter_pattern(program)

    baseline_ctl = ActiveRmtController(_switch())
    baseline = baseline_ctl.admit(fid=5, pattern=pattern)

    off_ctl = ActiveRmtController(_switch(), verify="off")
    off = off_ctl.admit(fid=5, pattern=pattern, program=program)

    assert off.verification is None
    assert (off.success, off.reason) == (baseline.success, baseline.reason)
    assert off.plan.regions == baseline.plan.regions
    assert off.plan.mutant == baseline.plan.mutant
    assert _allocator_fingerprint(off_ctl) == _allocator_fingerprint(
        baseline_ctl
    )


def test_controller_without_program_skips_verification():
    controller = ActiveRmtController(_switch(), verify="strict")
    program = _counter_program()
    report = controller.admit(fid=6, pattern=_counter_pattern(program))
    assert report.success
    assert report.verification is None


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------


def test_verifier_telemetry_counters():
    registry = MetricsRegistry()
    controller = ActiveRmtController(
        _switch(), verify="strict", telemetry=registry
    )
    controller.admit(fid=3, pattern=_liar_pattern(), program=_liar_program())
    counters = registry.snapshot()["counters"]
    rejections = {
        series: value
        for series, value in counters.items()
        if series.startswith("verifier_rejections_total")
    }
    assert list(rejections.values()) == [1.0]
    findings = {
        series: value
        for series, value in counters.items()
        if series.startswith("verifier_findings_total")
    }
    assert findings  # per-rule counters were recorded
    assert all('plane="controller"' in series for series in findings)
    assert any('rule="ARMT006"' in series for series in findings)


# ----------------------------------------------------------------------
# Property: strict-accepted programs never fault at runtime
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    pad=st.integers(min_value=0, max_value=3),
    demand=st.sampled_from([1, 2, 4]),
    key=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_strict_accepted_program_never_faults(pad, demand, key):
    """End-to-end soundness: a program that passes strict verification
    at both admission and compile time executes without a single
    memory-protection fault, for any hash key."""
    source = "NOP\n" * pad + COUNTER
    program = assemble(source, name="counter")
    pattern = AccessPattern.from_program(
        program, demands=[demand], name="counter"
    )
    switch = _switch()
    controller = ActiveRmtController(switch, verify="strict")
    admitted = controller.admit(fid=7, pattern=pattern, program=program)
    assert admitted.success  # strict accepted at admission...
    synthesized = compile_mutant(
        program,
        controller.allocator.response_for(7),
        demands=[demand],
        verify="strict",
    )  # ...and at compile time (would raise otherwise)
    packet = ActivePacket.program(
        src=CLIENT,
        dst=SERVER,
        fid=7,
        instructions=list(synthesized.program),
        args=[key],
    )
    result = switch.receive_batch([(packet, 1)])
    assert result.faulted == 0
    assert result.forwarded == 1
