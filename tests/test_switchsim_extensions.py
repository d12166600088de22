"""Unit tests for extended runtimes (Section 7.1)."""

import pytest

from repro.switchsim import LatencyModel, SwitchConfig
from repro.switchsim.extensions import (
    L2_FORWARDING,
    RuntimeExtension,
    extend_config,
    extend_latency,
)


def test_l2_extension_matches_paper_figures():
    assert L2_FORWARDING.stages_consumed == 1
    assert L2_FORWARDING.tcam_overhead == pytest.approx(0.03)
    assert L2_FORWARDING.phv_overhead == pytest.approx(0.06)
    assert L2_FORWARDING.latency_overhead == pytest.approx(0.04)


def test_extend_config_removes_a_stage():
    base = SwitchConfig()
    extended = extend_config(base, L2_FORWARDING)
    assert extended.num_stages == 19
    assert extended.tcam_entries_per_stage == int(2048 * 0.97)
    assert extended.total_memory_bytes < base.total_memory_bytes


def test_extend_config_clamps_ingress():
    tiny = SwitchConfig(num_stages=4, ingress_stages=3)
    ext = RuntimeExtension(name="big", stages_consumed=1)
    extended = extend_config(tiny, ext)
    assert extended.ingress_stages < extended.num_stages


def test_extend_config_rejects_consuming_everything():
    with pytest.raises(ValueError):
        extend_config(
            SwitchConfig(num_stages=4, ingress_stages=2),
            RuntimeExtension(name="huge", stages_consumed=3),
        )


def test_extend_latency_increases_forwarding_time():
    base = LatencyModel()
    extended = extend_latency(base, L2_FORWARDING)
    assert extended.half_pipe_us == pytest.approx(base.half_pipe_us * 1.04)
    assert extended.echo_rtt_us() > base.echo_rtt_us()


def test_extended_runtime_still_runs_programs():
    """Active programs execute unchanged on the 19-stage runtime."""
    from repro.controller import ActiveRmtController
    from repro.switchsim import ActiveSwitch
    from tests.test_core_constraints import listing1_pattern

    switch = ActiveSwitch(extend_config(SwitchConfig(), L2_FORWARDING))
    controller = ActiveRmtController(switch)
    report = controller.admit(fid=1, pattern=listing1_pattern())
    assert report.success
    assert max(report.plan.regions) <= 19
