"""Tests for the per-program decode/trace cache (the hot-path engine).

The contract under test: with the cache enabled, every execution is
byte-identical to the uncached interpreter -- same dispositions, same
PHV state, same emitted packets, same register contents -- and any
control-plane table rewrite (reallocation, withdrawal, or a direct
mutation) invalidates the affected entries before they can serve stale
decode state.
"""

import pytest

from repro.controller import ActiveRmtController
from repro.core import AllocationScheme
from repro.isa import assemble
from repro.packets import ActivePacket, MacAddress, decode_packet, encode_packet
from repro.switchsim import (
    ActiveSwitch,
    PacketDisposition,
    Pipeline,
    StageGrant,
    SwitchConfig,
    infer_recirculations,
    program_digest,
)

from tests.test_core_constraints import listing1_pattern
from tests.test_switchsim_differential import _assert_identical

CLIENT = MacAddress.from_host_id(1)
SERVER = MacAddress.from_host_id(2)

CACHE_QUERY = """
    MAR_LOAD $2
    MEM_READ
    MBR_EQUALS_DATA_1
    CRET
    MEM_READ
    MBR_EQUALS_DATA_2
    CRET
    RTS
    MEM_READ
    MBR_STORE $0
    RETURN
"""


def _packet(program, args=None, fid=1):
    return ActivePacket.program(
        src=CLIENT, dst=SERVER, fid=fid, instructions=list(program), args=args or []
    )


def _grant_stages(pipeline, fid, stages, start=0, end=1024):
    for stage in stages:
        pipeline.stage(stage).table.install_grant(
            StageGrant(fid=fid, start=start, end=end)
        )


# ----------------------------------------------------------------------
# infer_recirculations
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "program_len,num_stages,expected",
    [
        (0, 20, 0),
        (1, 20, 0),
        (20, 20, 0),
        (21, 20, 1),
        (40, 20, 1),
        (41, 20, 2),
        (45, 20, 2),
        (11, 10, 1),
    ],
)
def test_infer_recirculations(program_len, num_stages, expected):
    assert infer_recirculations(program_len, num_stages) == expected


def test_infer_recirculations_matches_legacy_expression():
    for n in range(1, 101):
        for s in (4, 10, 20):
            assert infer_recirculations(n, s) == -(-n // s) - 1


def test_infer_recirculations_rejects_bad_stage_count():
    with pytest.raises(ValueError):
        infer_recirculations(10, 0)


def test_program_digest_ignores_executed_bit():
    fresh = list(assemble("NOP\nRETURN"))
    done = [instr.with_executed() for instr in fresh]
    assert program_digest(fresh) == program_digest(done)


def test_built_and_decoded_packets_share_one_binding():
    """The level-2 key is the packet's wire words with EXECUTED masked
    out: a packet built in memory, its frame decoded, and a frame whose
    headers arrived marked all hit the binding the first one made."""
    pipeline = Pipeline(SwitchConfig())
    program = assemble(CACHE_QUERY)
    _grant_stages(pipeline, 1, (2, 5, 9))
    built = _packet(program, args=[1, 2, 17, 0])
    frame = encode_packet(built)
    marked = _packet(program, args=[1, 2, 17, 0])
    marked.executed = 4
    arrivals = [built, decode_packet(frame), decode_packet(encode_packet(marked))]
    assert arrivals[2].code != arrivals[1].code  # the marks travelled
    for packet in arrivals:
        pipeline.execute(packet)
    stats = pipeline.program_cache.stats()
    assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 2, 1)
    assert (stats["program_misses"], stats["programs"]) == (1, 1)
    assert program_digest(program) == built.code


# ----------------------------------------------------------------------
# Cache bookkeeping
# ----------------------------------------------------------------------


def test_repeat_program_hits_cache():
    pipeline = Pipeline(SwitchConfig())
    program = assemble("NOP\nRTS\nRETURN")
    pipeline.execute(_packet(program))
    pipeline.execute(_packet(program))
    stats = pipeline.program_cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert stats["hit_rate"] == 0.5


def test_distinct_fids_do_not_share_entries():
    pipeline = Pipeline(SwitchConfig())
    program = assemble("NOP\nRETURN")
    pipeline.execute(_packet(program, fid=1))
    pipeline.execute(_packet(program, fid=2))
    assert pipeline.program_cache.stats()["misses"] == 2


def test_lru_eviction_bounds_entries():
    pipeline = Pipeline(SwitchConfig(program_cache_entries=2))
    programs = [
        assemble("\n".join(["NOP"] * n + ["RETURN"])) for n in (1, 2, 3)
    ]
    for program in programs:
        pipeline.execute(_packet(program))
    stats = pipeline.program_cache.stats()
    assert stats["entries"] == 2
    assert stats["evictions"] == 1
    # Oldest program was evicted; re-running it misses again.
    pipeline.execute(_packet(programs[0]))
    assert pipeline.program_cache.stats()["misses"] == 4


def test_zero_capacity_disables_cache():
    pipeline = Pipeline(SwitchConfig(program_cache_entries=0))
    assert pipeline.program_cache is None
    result = pipeline.execute(_packet(assemble("RTS\nRETURN")))
    assert result.disposition is PacketDisposition.RETURN_TO_SENDER


def test_invalidate_fid_flushes_only_that_fid():
    pipeline = Pipeline(SwitchConfig())
    program = assemble("NOP\nRETURN")
    pipeline.execute(_packet(program, fid=1))
    pipeline.execute(_packet(program, fid=2))
    assert pipeline.invalidate_program_cache(1) == 1
    assert len(pipeline.program_cache) == 1
    pipeline.execute(_packet(program, fid=2))
    assert pipeline.program_cache.stats()["hits"] == 1


def test_direct_table_mutation_caught_by_version_stamps():
    """Mutating a stage table behind the controller's back must not
    let a cached schedule serve the old grant."""
    pipeline = Pipeline(SwitchConfig())
    program = assemble("MAR_LOAD $0\nMEM_READ\nRETURN")
    _grant_stages(pipeline, fid=1, stages=[2], start=0, end=100)
    ok = pipeline.execute(_packet(program, args=[50, 0, 0, 0]))
    assert ok.disposition is PacketDisposition.FORWARD
    # Shrink the grant directly (no controller involved).
    pipeline.stage(2).table.remove_grant(1)
    pipeline.stage(2).table.install_grant(StageGrant(fid=1, start=0, end=10))
    denied = pipeline.execute(_packet(program, args=[50, 0, 0, 0]))
    assert denied.disposition is PacketDisposition.FAULT
    assert "denied" in denied.phv.fault_reason
    assert pipeline.program_cache.stats()["invalidations"] >= 1


_READ = assemble("MAR_LOAD $0\nMEM_READ\nRETURN")
_COUNTS = ("hits", "misses", "invalidations", "program_hits", "program_misses")


#: Writes to one stage table, each behind the controller's back: the
#: FID-9 entries they touch are installed first, so every one mutates.
_TABLE_WRITES = [
    ("install_grant", lambda table: table.install_grant(StageGrant(fid=9, start=0, end=4))),
    ("remove_grant", lambda table: table.remove_grant(9)),
    ("install_translation", lambda table: table.install_translation(9, 0xF, 0)),
    ("remove_translation", lambda table: table.remove_translation(9)),
    ("shrink_own_grant", lambda table: table.install_grant(StageGrant(fid=1, start=0, end=10))),
]


def _binding_pipelines():
    """A cached and an uncached pipeline, fid 1 granted in stage 2 (the
    one table ``MAR_LOAD $0; MEM_READ; RETURN`` reads), fid 9 in stages 2
    and 7, and fid 1's binding warm in the cached one."""
    pipelines = Pipeline(SwitchConfig()), Pipeline(SwitchConfig(program_cache_entries=0))
    for pipeline in pipelines:
        _grant_stages(pipeline, fid=1, stages=[2], start=0, end=100)
        _grant_stages(pipeline, fid=9, stages=[2, 7], start=0, end=8)
        for stage in (2, 7):
            pipeline.stage(stage).table.install_translation(9, 0x3, 0)
    pipelines[0].execute(_packet(_READ, args=[50, 0, 0, 0]))
    return pipelines


def _count_deltas(cache, run):
    before = cache.stats()
    run()
    after = cache.stats()
    return {name: after[name] - before[name] for name in _COUNTS}


_REBOUND = {"hits": 0, "misses": 1, "invalidations": 1, "program_hits": 1, "program_misses": 0}
_HIT = {"hits": 1, "misses": 0, "invalidations": 0, "program_hits": 0, "program_misses": 0}


@pytest.mark.parametrize(
    "stage,expected", [(2, _REBOUND), (7, _HIT)], ids=["table-read", "other-table"]
)
@pytest.mark.parametrize("name,write", _TABLE_WRITES, ids=[w[0] for w in _TABLE_WRITES])
def test_binding_currency_after_a_table_write(stage, expected, name, write):
    """The binding-currency oracle.  Any write to a table the binding took
    operands from (any FID's entry) re-binds it on the next packet: one
    invalidation and one miss, to the same level-1 program.  A write to a
    table it never read moves the epoch but not the binding: a hit, and
    the binding is re-stamped.  Either way the packet runs as on the
    uncached pipeline, and the next one is a hit by the epoch compare."""
    cached, cold = _binding_pipelines()
    cache = cached.program_cache
    (binding,) = cache._entries.values()
    results = []

    def send():
        for pipeline in (cached, cold):
            write(pipeline.stage(stage).table)
            results.append(pipeline.execute(_packet(_READ, args=[50, 0, 0, 0])))

    assert _count_deltas(cache, send) == expected
    _assert_identical(*results)
    (current,) = cache._entries.values()
    assert (current is binding) == (stage == 7) and current.program is binding.program
    assert current.epoch == cached.table_epoch[0]
    assert _count_deltas(cache, lambda: cached.execute(_packet(_READ, args=[50, 0, 0, 0]))) == _HIT


# ----------------------------------------------------------------------
# Cached-vs-cold byte identity
# ----------------------------------------------------------------------

_SCENARIOS = [
    # (source, args, fid) -- exercises hits, misses, faults, protection,
    # translation, recirculation, branches, forks, and egress RTS.
    (CACHE_QUERY, [0xAAAA0001, 0xBBBB0002, 17, 0], 1),
    (CACHE_QUERY, [0xDEAD0000, 0xBBBB0002, 17, 0], 1),
    ("MAR_LOAD $0\nMEM_READ\nRETURN", [100, 0, 0, 0], 1),  # out of region
    ("MAR_LOAD $0\nMEM_WRITE\nRETURN", [0, 0, 0, 0], 42),  # no grant
    ("\n".join(["NOP"] * 25 + ["RETURN"]), [], 1),  # recirculates
    ("MBR_LOAD $0\nCJUMP @keep\nDROP\nkeep: NOP\nRETURN", [1, 0, 0, 0], 1),
    ("MBR_LOAD $0\nCJUMP @keep\nDROP\nkeep: NOP\nRETURN", [0, 0, 0, 0], 1),
    ("FORK\nNOP\nRETURN", [], 1),
    ("\n".join(["NOP"] * 12 + ["RTS", "RETURN"]), [], 1),  # egress RTS
    (
        "MBR_LOAD $0\nCOPY_HASHDATA_MBR\nHASH\nADDR_MASK\nADDR_OFFSET\n"
        "MEM_INCREMENT\nRETURN",
        [1234, 0, 0, 0],
        3,
    ),
]


def _seeded_pipeline(cache_entries):
    pipeline = Pipeline(SwitchConfig(program_cache_entries=cache_entries))
    _grant_stages(pipeline, fid=1, stages=[2, 5, 9], start=0, end=100)
    bucket = 17
    pipeline.stage(2).registers.write(bucket, 0xAAAA0001)
    pipeline.stage(5).registers.write(bucket, 0xBBBB0002)
    pipeline.stage(9).registers.write(bucket, 0xCAFED00D)
    for stage in (4, 5, 6):
        pipeline.stage(stage).table.install_grant(
            StageGrant(fid=3, start=512, end=768, mask=0xFF, offset=512)
        )
    return pipeline


def test_cached_execution_byte_identical_to_cold():
    warm = _seeded_pipeline(cache_entries=256)
    cold = _seeded_pipeline(cache_entries=0)
    # Two rounds: the second round on `warm` runs fully from cache.
    for _round in range(2):
        for source, args, fid in _SCENARIOS:
            program = assemble(source)
            warm_result = warm.execute(_packet(program, args=list(args), fid=fid))
            cold_result = cold.execute(_packet(program, args=list(args), fid=fid))
            _assert_identical(warm_result, cold_result)
    assert warm.program_cache.stats()["hits"] >= len(_SCENARIOS)
    # Register state diverged nowhere.
    for warm_stage, cold_stage in zip(warm.stages, cold.stages):
        assert warm_stage.registers._cells == cold_stage.registers._cells


# ----------------------------------------------------------------------
# Reallocation invalidation (the ISSUE's required test)
# ----------------------------------------------------------------------


def _controller_switch(cache_entries):
    switch = ActiveSwitch(SwitchConfig(program_cache_entries=cache_entries))
    switch.register_host(CLIENT, 1)
    switch.register_host(SERVER, 2)
    controller = ActiveRmtController(switch, scheme=AllocationScheme.FIRST_FIT)
    return switch, controller


def test_reallocation_flushes_cache_and_matches_cold_pipeline():
    """Rewriting a FID's tables (reallocation) must flush its cached
    schedules; post-realloc executions are byte-identical to a cold
    pipeline driven through the same history."""
    warm, warm_ctrl = _controller_switch(cache_entries=256)
    cold, cold_ctrl = _controller_switch(cache_entries=0)

    program = assemble(CACHE_QUERY, name="cache-query")
    probe = assemble("MAR_LOAD $0\nMEM_READ\nRETURN")

    for ctrl in (warm_ctrl, cold_ctrl):
        assert ctrl.admit(fid=1, pattern=listing1_pattern()).success

    # Populate the warm cache for fid 1 under the full-size grant.
    bucket = 17
    for switch in (warm, cold):
        switch.pipeline.stage(2).registers.write(bucket, 0xAAAA0001)
        switch.pipeline.stage(5).registers.write(bucket, 0xBBBB0002)
        switch.pipeline.stage(9).registers.write(bucket, 0xCAFED00D)
    args = [0xAAAA0001, 0xBBBB0002, bucket, 0]
    for _ in range(2):
        _assert_identical(
            warm.pipeline.execute(_packet(program, args=list(args))),
            cold.pipeline.execute(_packet(program, args=list(args))),
        )
    warm_stats = warm.pipeline.program_cache.stats()
    assert warm_stats["hits"] >= 1
    full_grant = warm.pipeline.stage(2).table.grant_for(1)

    # A same-pattern arrival under first-fit reallocates fid 1 (its
    # region is halved), rewriting every one of its table entries.
    for ctrl in (warm_ctrl, cold_ctrl):
        report = ctrl.admit(fid=50, pattern=listing1_pattern())
        assert report.success
        assert 1 in report.reallocated_fids

    after = warm.pipeline.program_cache.stats()
    assert after["invalidations"] > warm_stats["invalidations"]
    halved_grant = warm.pipeline.stage(2).table.grant_for(1)
    assert halved_grant.end < full_grant.end

    # The halved bound must be enforced on the very next packet: a
    # stale cached schedule would still admit this index.
    beyond = halved_grant.end + 5
    warm_denied = warm.pipeline.execute(_packet(probe, args=[beyond, 0, 0, 0]))
    cold_denied = cold.pipeline.execute(_packet(probe, args=[beyond, 0, 0, 0]))
    assert warm_denied.disposition is PacketDisposition.FAULT
    _assert_identical(warm_denied, cold_denied)

    # In-region traffic still matches byte for byte after the rewrite.
    for switch in (warm, cold):
        switch.pipeline.stage(2).registers.write(bucket, 0xAAAA0001)
        switch.pipeline.stage(5).registers.write(bucket, 0xBBBB0002)
        switch.pipeline.stage(9).registers.write(bucket, 0xCAFED00D)
    for _ in range(2):
        _assert_identical(
            warm.pipeline.execute(_packet(program, args=list(args))),
            cold.pipeline.execute(_packet(program, args=list(args))),
        )
    for warm_stage, cold_stage in zip(warm.pipeline.stages, cold.pipeline.stages):
        assert warm_stage.registers._cells == cold_stage.registers._cells


def test_withdrawal_flushes_cache():
    warm, controller = _controller_switch(cache_entries=256)
    assert controller.admit(fid=1, pattern=listing1_pattern()).success
    program = assemble(CACHE_QUERY)
    warm.pipeline.execute(_packet(program, args=[0, 0, 17, 0]))
    assert len(warm.pipeline.program_cache) == 1
    controller.withdraw(fid=1)
    assert len(warm.pipeline.program_cache) == 0
    # Post-withdrawal, memory access faults (no grant) -- not stale OK.
    result = warm.pipeline.execute(
        _packet(assemble("MAR_LOAD $0\nMEM_READ\nRETURN"), args=[0, 0, 0, 0])
    )
    assert result.disposition is PacketDisposition.FAULT
