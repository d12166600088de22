"""Device abstraction layer: protocol conformance and pure delegation.

The contracts under test:

- :class:`SimDevice` satisfies the runtime-checkable :class:`Device`
  protocol, so controllers typed against the protocol accept it, and
  its public surface -- like :class:`FaultyDevice`'s beside its fault
  controls -- is exactly the protocol's, and the program outside the
  adapters uses every member of it.
- Every ``SimDevice`` method is a one-hop delegation: table ops,
  register ops, digests, and injection observed through the device are
  byte-identical to poking the wrapped switch directly; a table read
  is a copy, stage by stage, FIDs ascending.
- :func:`as_device` coerces an ``ActiveSwitch`` (wrap), passes an
  existing ``Device`` through, and rejects foreign objects.
- A controller built from a raw switch still exposes it via the
  ``.switch`` escape hatch, and never imports the simulator itself
  (the grep-clean guarantee, pinned here as an import-graph test).
"""

import ast
from array import array
from pathlib import Path

import pytest

import repro
from repro.controller import ActiveRmtController
from repro.device import Device, DeviceError, SimDevice, as_device
from repro.faults import FaultPlan, FaultyDevice
from repro.packets import ActivePacket, MacAddress
from repro.switchsim import ActiveSwitch, SwitchConfig
from repro.switchsim.tables import StageGrant

from tests.test_core_constraints import listing1_pattern


def _device(**config_kwargs):
    switch = ActiveSwitch(SwitchConfig(**config_kwargs))
    return SimDevice(switch, device_id="dut"), switch


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------


def test_sim_device_satisfies_device_protocol():
    device, _ = _device()
    assert isinstance(device, Device)


def _public(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


#: What :class:`FaultyDevice` adds to the protocol: the fault plan, its
#: counts, and the device it wraps.
FAULT_CONTROLS = {
    "kill", "injected", "metrics", "plan", "dead", "faults", "digests_dropped", "inner",
}


def test_adapters_expose_exactly_the_protocol():
    """No adapter grows a method the control plane does not call
    through a :class:`Device`; the data path is the switch's own."""
    members = {name for name in vars(Device) if not name.startswith("_")}
    device, _ = _device()
    assert _public(device) == members
    assert _public(FaultyDevice(device, FaultPlan())) - FAULT_CONTROLS == members


def test_every_protocol_member_is_used_by_the_program():
    """A member no code outside the adapters calls or reads is surface a
    hardware port must implement for nothing; it fails here, not in
    review.  Every attribute named anywhere in ``src/repro`` outside
    ``device/`` and ``faults/device.py`` counts as a use."""
    root = Path(repro.__file__).parent
    used = set()
    for path in root.rglob("*.py"):
        relative = path.relative_to(root).as_posix()
        if relative.startswith("device/") or relative == "faults/device.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    members = {name for name in vars(Device) if not name.startswith("_")}
    assert "read_tables" in members
    assert sorted(members - used) == []


def test_default_device_ids_are_unique():
    switch = ActiveSwitch(SwitchConfig())
    first = SimDevice(switch)
    second = SimDevice(switch)
    assert first.device_id != second.device_id
    assert first.device_id.startswith("sw")


# ----------------------------------------------------------------------
# as_device coercion
# ----------------------------------------------------------------------


def test_as_device_wraps_a_raw_switch():
    switch = ActiveSwitch(SwitchConfig())
    device = as_device(switch)
    assert isinstance(device, SimDevice)
    assert device.underlying is switch


def test_as_device_passes_an_existing_device_through():
    device, _ = _device()
    assert as_device(device) is device


def test_as_device_rejects_foreign_objects():
    with pytest.raises(DeviceError, match="cannot adapt"):
        as_device(object())


# ----------------------------------------------------------------------
# Delegation: tables
# ----------------------------------------------------------------------


def test_table_ops_delegate_to_the_wrapped_pipeline():
    device, switch = _device()
    grant = StageGrant(fid=7, start=0, end=32, mask=0x1F, offset=0)
    device.install_grant(2, grant)
    assert switch.pipeline.stage(2).table.grant_for(7) == grant
    assert device.read_tables().grants[2] == {7: grant}

    device.install_translation(2, 7, mask=0x1F, offset=0)
    assert device.read_tables().translations[2] == {7: (0x1F, 0)}
    assert switch.pipeline.stage(2).table.translation_for(7) == (0x1F, 0)

    assert device.remove_translation(2, 7) is True
    assert device.remove_translation(2, 7) is False
    assert device.remove_grant(2, 7) == grant
    assert device.read_tables().grants[2] == {}


def test_activation_delegates():
    device, switch = _device()
    assert device.is_active(9)
    device.deactivate_fid(9)
    assert not switch.pipeline.is_active(9)
    device.reactivate_fid(9)
    assert device.is_active(9)


def test_a_table_read_is_a_copy_with_fids_ascending():
    device, _switch = _device(num_stages=4, ingress_stages=2)
    for fid in (9, 3, 5):
        device.install_grant(2, StageGrant(fid=fid, start=32 * fid, end=32 * fid + 32))
        device.install_translation(1, fid, mask=0x1F, offset=32 * fid)
    read = device.read_tables()
    assert list(read.grants) == list(read.translations) == list(read.tcam) == [1, 2, 3, 4]
    assert list(read.grants[2]) == list(read.translations[1]) == [3, 5, 9]
    assert read.tcam[2] == (3, device.config.tcam_entries_per_stage)
    assert read.grants[1] == read.translations[2] == {}
    copy = device.read_tables()
    device.install_grant(2, StageGrant(fid=1, start=0, end=32))
    device.install_translation(1, 1, mask=0x1F, offset=0)
    device.remove_grant(2, 9)
    device.remove_translation(1, 9)
    assert read == copy
    assert list(device.read_tables().grants[2]) == [1, 3, 5]


@pytest.mark.parametrize("stage", [0, -1, 21])
def test_a_stage_outside_the_pipeline_is_refused_not_wrapped(stage):
    """Stages are 1-indexed: stage 0 used to land in stage 20 and -1 in
    stage 19, because ``Pipeline.stage`` indexes a list."""
    device, switch = _device()
    grant = StageGrant(fid=7, start=0, end=32, mask=0x1F, offset=0)
    calls = [
        lambda: device.install_grant(stage, grant),
        lambda: device.install_translation(stage, 7, mask=0x1F, offset=0),
        lambda: device.remove_grant(stage, 7),
        lambda: device.write_registers(stage, 0, [5]),
        lambda: device.scrub_registers(stage, 0, 1),
    ]
    for call in calls:
        with pytest.raises(IndexError, match=f"stage {stage}"):
            call()
    for index in range(1, switch.config.num_stages + 1):
        assert switch.pipeline.stage(index).table.fids == []
        assert switch.pipeline.stage(index).table.translation_fids == []
        assert switch.pipeline.stage(index).registers.snapshot(0, 1) == array("I", [0])


# ----------------------------------------------------------------------
# Delegation: register memory
# ----------------------------------------------------------------------


def test_register_roundtrip_through_the_device():
    device, switch = _device()
    device.write_registers(1, 4, [10, 20, 30])
    assert device.read_registers(1, 4, 7) == array("I", [10, 20, 30])
    assert switch.pipeline.stage(1).registers.snapshot(4, 7) == array("I", [10, 20, 30])

    device.scrub_registers(1, 4, 6)
    assert device.read_registers(1, 4, 7) == array("I", [0, 0, 30])


def test_digests_delegate():
    device, switch = _device()
    assert device.poll_digests() == []
    request = ActivePacket.alloc_request(
        src=MacAddress.from_host_id(1),
        dst=MacAddress.from_host_id(2),
        fid=7,
        request=listing1_pattern().to_request(),
    )
    switch.receive(request, in_port=1)
    assert [digest.fid for digest in device.poll_digests()] == [7]
    assert switch.digests_pending == 0


# ----------------------------------------------------------------------
# Controller integration
# ----------------------------------------------------------------------


def test_controller_accepts_raw_switch_and_exposes_escape_hatch():
    switch = ActiveSwitch(SwitchConfig())
    controller = ActiveRmtController(switch)
    assert isinstance(controller.device, Device)
    assert controller.switch is switch
    assert controller.device.underlying is switch


def test_controller_accepts_a_device_directly():
    device, switch = _device()
    controller = ActiveRmtController(device)
    assert controller.device is device
    assert controller.switch is switch


def test_controller_package_does_not_import_the_simulator():
    """The refactor's grep-clean guarantee, as an import-graph check."""
    import sys

    controller_modules = [
        name
        for name in sys.modules
        if name.startswith("repro.controller")
    ]
    assert controller_modules, "controller modules should be loaded by now"
    for name in controller_modules:
        module = sys.modules[name]
        source = getattr(module, "__file__", None)
        if source is None:
            continue
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
        for module_name in (
            "repro.switchsim.switch",
            "repro.switchsim.pipeline",
            "repro.client.compiler",
        ):
            assert f"from {module_name} import" not in text, (
                f"{name} imports {module_name} directly"
            )
            assert f"import {module_name}" not in text, (
                f"{name} imports {module_name} directly"
            )


def test_controller_module_leaves_the_wire_format_to_wire_py():
    """The Section 4.3 wire protocol lives in ``repro.controller.wire``:
    ``repro.controller.controller`` imports neither the packet headers
    nor the codec (nor the package that re-exports them) at runtime.  An
    import under ``if TYPE_CHECKING:`` is an annotation, not a runtime
    import."""
    import repro.controller.controller as module

    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and getattr(block.test, "id", None) == "TYPE_CHECKING"
        for node in ast.walk(block)
    }
    imported = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert "repro.controller.wire" in imported
    wire_format = {"repro.packets", "repro.packets.headers", "repro.packets.codec"}
    assert not imported & wire_format, sorted(imported & wire_format)
