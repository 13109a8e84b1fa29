"""FaultPlan: construction, generation, installation, and network faults."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import CRASH, FaultEvent, FaultPlan
from repro.net import NetworkTransport, Topology
from repro.runtime import (TIMED_OUT_BRANCH, Delay, EventKind, Receive,
                           Scheduler, Select, Send)


def test_events_kept_in_time_order():
    plan = FaultPlan().crash(5.0, "b").crash(1.0, "a").crash(3.0, "c")
    assert [e.time for e in plan] == [1.0, 3.0, 5.0]
    assert len(plan) == 3


def test_event_validation():
    with pytest.raises(FaultPlanError):
        FaultEvent(1.0, "meteor")
    with pytest.raises(FaultPlanError):
        FaultEvent(-1.0, CRASH)
    with pytest.raises(FaultPlanError):
        FaultPlan().partition(5.0, "a", "b", heal_at=4.0)
    with pytest.raises(FaultPlanError):
        FaultPlan().slow(1.0, 0.0)
    with pytest.raises(FaultPlanError):
        FaultPlan().drop(1.0, -2)


def test_network_events_require_a_transport():
    plan = FaultPlan().partition(1.0, "a", "b")
    with pytest.raises(FaultPlanError):
        plan.install(Scheduler())


def test_crash_event_kills_a_running_process():
    scheduler = Scheduler()

    def sleeper():
        yield Delay(100.0)
        return "woke"

    scheduler.spawn("sleeper", sleeper())
    FaultPlan().crash(2.0, "sleeper").install(scheduler)
    result = scheduler.run()
    assert "sleeper" in result.killed
    assert "sleeper" not in result.results
    faults = [e for e in result.tracer if e.kind is EventKind.FAULT]
    assert len(faults) == 1 and faults[0].get("applied") is True


def test_crash_aimed_at_a_missing_process_is_recorded_not_fatal():
    scheduler = Scheduler()

    def real():
        yield Delay(2.0)

    scheduler.spawn("real", real())
    FaultPlan().crash(1.0, "ghost").install(scheduler)
    result = scheduler.run()
    assert result.killed == []
    faults = [e for e in result.tracer if e.kind is EventKind.FAULT]
    assert len(faults) == 1 and faults[0].get("applied") is False


def _two_node_transport():
    topology = Topology("pair")
    topology.add_link("a", "b", 1.0)
    return NetworkTransport(topology, {"sender": "a", "receiver": "b"})


def test_partition_blocks_rendezvous_until_heal():
    scheduler = Scheduler()
    transport = _two_node_transport()
    scheduler.transport = transport

    def sender():
        yield Delay(1.0)
        yield Send("receiver", "through")

    def receiver():
        value = yield Receive()
        return value

    scheduler.spawn("sender", sender())
    scheduler.spawn("receiver", receiver())
    FaultPlan().partition(0.5, "a", "b", heal_at=5.0).install(
        scheduler, transport=transport)
    result = scheduler.run()
    assert result.results["receiver"] == "through"
    # Blocked across the cut from t=1 to the heal at t=5, then one unit of
    # link latency for delivery.
    assert result.time == 6.0
    assert scheduler.match_filter == transport.match_filter


def test_partition_survived_by_timeout_and_retry():
    scheduler = Scheduler()
    transport = _two_node_transport()
    scheduler.transport = transport

    def sender():
        yield Delay(1.0)  # offer only once the partition is up
        yield Send("receiver", "eventually")

    def receiver():
        attempts = 0
        while True:
            result = yield Select([Receive()], timeout=2.0)
            if result.index == TIMED_OUT_BRANCH:
                attempts += 1
                continue
            return attempts, result.value

    scheduler.spawn("sender", sender())
    scheduler.spawn("receiver", receiver())
    FaultPlan().partition(0.5, "a", "b", heal_at=6.5).install(
        scheduler, transport=transport)
    result = scheduler.run()
    attempts, value = result.results["receiver"]
    assert value == "eventually"
    assert attempts == 3  # expiries at t=2, 4, 6; the heal beats the next
    assert scheduler.pending_timer_count == 0


def test_slow_and_drop_windows_mutate_and_restore_the_transport():
    scheduler = Scheduler()
    transport = _two_node_transport()
    plan = (FaultPlan()
            .slow(1.0, 4.0, until=3.0)
            .drop(2.0, 2, until=5.0))
    plan.install(scheduler, transport=transport)

    def bystander():
        yield Delay(1.5)
        first = (transport.latency_factor, transport.drop_retries)
        yield Delay(1.0)
        second = (transport.latency_factor, transport.drop_retries)
        yield Delay(4.0)
        third = (transport.latency_factor, transport.drop_retries)
        return first, second, third

    scheduler.spawn("bystander", bystander())
    result = scheduler.run()
    assert result.results["bystander"] == (
        (4.0, 0),   # t=1.5: inside the latency spike, before the drops
        (4.0, 2),   # t=2.5: spike and drop window overlap
        (1.0, 0))   # t=6.5: everything restored


def test_partition_and_heal_targets_must_be_node_pairs():
    # Malformed targets must fail at construction, not as an opaque
    # unpack error inside a timer callback mid-run.
    with pytest.raises(FaultPlanError, match="2-tuple"):
        FaultEvent(1.0, "partition", target="a")
    with pytest.raises(FaultPlanError, match="2-tuple"):
        FaultEvent(1.0, "heal", target=("a", "b", "c"))
    with pytest.raises(FaultPlanError, match="2-tuple"):
        FaultEvent(1.0, "partition", target=None)
    # A proper pair is accepted.
    FaultEvent(1.0, "partition", target=("a", "b"))


def test_install_composes_an_existing_match_filter_with_and():
    """A pre-existing scheduler filter must keep vetoing after a plan
    installs the transport's partition filter — neither may shadow the
    other (the old behavior silently overwrote the first)."""
    scheduler = Scheduler()
    transport = _two_node_transport()
    scheduler.transport = transport
    vetoes = []

    def never_receiver_first(sender, receiver):
        vetoes.append((sender.name, receiver.name))
        return receiver.name != "blocked"

    scheduler.match_filter = never_receiver_first
    FaultPlan().slow(50.0, 2.0).install(scheduler, transport=transport)
    assert scheduler.match_filter is not never_receiver_first  # composed

    def sender():
        yield Send("blocked", "never")

    def blocked():
        result = yield Select([Receive()], timeout=3.0)
        return result.index

    scheduler.spawn("sender", sender())
    scheduler.spawn("blocked", blocked())
    scheduler.transport.place("blocked", "b")
    result = scheduler.run(until=10.0)
    # The custom filter was consulted and vetoed the pair: the receive
    # timed out instead of committing.
    assert result.results["blocked"] == TIMED_OUT_BRANCH
    assert ("sender", "blocked") in vetoes


def test_reinstalling_the_same_transport_does_not_stack_filters():
    scheduler = Scheduler()
    transport = _two_node_transport()
    FaultPlan().slow(1.0, 2.0).install(scheduler, transport=transport)
    first = scheduler.match_filter
    FaultPlan().slow(2.0, 3.0).install(scheduler, transport=transport)
    # Bound methods compare equal, so the second install is idempotent.
    assert scheduler.match_filter == first == transport.match_filter


def test_install_rejects_events_already_in_the_past_mid_run():
    scheduler = Scheduler()

    def sleeper():
        yield Delay(5.0)

    scheduler.spawn("sleeper", sleeper())
    scheduler.run()
    assert scheduler.now == 5.0
    with pytest.raises(FaultPlanError, match="past"):
        FaultPlan().crash(2.0, "sleeper").install(scheduler)


def test_describe_is_human_readable():
    plan = (FaultPlan().crash(1.0, "p").partition(2.0, "a", "b")
            .slow(3.0, 2.0).drop(4.0, 1))
    lines = plan.describe()
    assert lines[0] == "t=1 crash 'p'"
    assert "partition" in lines[1]
    assert "latency x2" in lines[2]
    assert "drop retries=1" in lines[3]


# ---------------------------------------------------------------------------
# Journal corruption: crash-shaped faults against the durability layer
# ---------------------------------------------------------------------------

def _journal(tmp_path, frames=6):
    from repro.persist.journal import HEADER, JournalWriter
    path = tmp_path / "victim.jrnl"
    with JournalWriter(path) as writer:
        writer.append({"k": HEADER, "version": 1, "seed": 0,
                       "scenario": "t", "options": {}, "snapshot_every": 64})
        for i in range(frames):
            writer.append({"k": "event", "seq": i, "kind": "comm"})
    return path


def test_corruption_plan_validation():
    from repro.faults import JournalCorruptionPlan
    with pytest.raises(FaultPlanError, match="corruption mode"):
        JournalCorruptionPlan(seed=0, mode="shred")
    with pytest.raises(FaultPlanError, match="intensity"):
        JournalCorruptionPlan(seed=0, intensity=0)


@pytest.mark.parametrize("mode", ["truncate", "bitflip", "garbage"])
def test_corruption_reads_as_torn_tail_never_structural(tmp_path, mode):
    """Every corruption mode leaves a journal the reader can still open:
    the damage drops frames from the tail, it never raises."""
    from repro.faults import JournalCorruptionPlan
    from repro.persist.journal import read_journal
    path = _journal(tmp_path)
    intact = len(read_journal(path).frames)
    description = JournalCorruptionPlan(
        seed=1, mode=mode, intensity=12).apply(str(path))
    assert mode[:4] in description or "flip" in description
    doc = read_journal(path)                      # must not raise
    assert path.read_bytes()[:8] == b"SCRJRNL1"   # magic never touched
    assert len(doc.frames) <= intact
    if doc.frames or doc.torn:
        assert doc.header["scenario"] == "t"


def test_truncate_never_cuts_into_the_magic(tmp_path):
    from repro.faults import JournalCorruptionPlan
    path = _journal(tmp_path, frames=0)
    JournalCorruptionPlan(seed=0, mode="truncate",
                          intensity=10_000).apply(str(path))
    assert path.read_bytes() == b"SCRJRNL1"


def test_bitflip_on_a_magic_only_journal_is_a_noop(tmp_path):
    from repro.faults import JournalCorruptionPlan
    path = tmp_path / "empty.jrnl"
    path.write_bytes(b"SCRJRNL1")
    description = JournalCorruptionPlan(
        seed=3, mode="bitflip", intensity=8).apply(str(path))
    assert "nothing to flip" in description
    assert path.read_bytes() == b"SCRJRNL1"


def test_garbage_on_a_header_only_journal_reads_as_torn(tmp_path):
    from repro.faults import JournalCorruptionPlan
    from repro.persist.journal import read_journal
    path = _journal(tmp_path, frames=0)
    JournalCorruptionPlan(seed=3, mode="garbage",
                          intensity=16).apply(str(path))
    doc = read_journal(path)
    assert doc.torn and doc.frames == []
    assert doc.header["scenario"] == "t"


def test_truncate_into_the_header_is_structural(tmp_path):
    # Truncation that eats the header frame is the one corruption no
    # crash of an append-only writer can produce; the reader refuses it
    # loudly instead of resuming from garbage.
    from repro.errors import JournalError
    from repro.faults import JournalCorruptionPlan
    from repro.persist.journal import read_journal
    path = _journal(tmp_path, frames=0)
    JournalCorruptionPlan(seed=0, mode="truncate",
                          intensity=4).apply(str(path))
    with pytest.raises(JournalError, match="header"):
        read_journal(path)


def _frame_spans(data):
    """``(start, payload_start, end)`` per frame after the magic."""
    import struct
    spans, offset = [], 8
    while offset + 8 <= len(data):
        length, _crc = struct.unpack_from("<II", data, offset)
        spans.append((offset, offset + 8, offset + 8 + length))
        offset += 8 + length
    return spans


@pytest.mark.parametrize("region", ["length", "crc", "payload"])
def test_bitflip_by_region_drops_from_the_damaged_frame(tmp_path, region):
    """One flipped bit in the last frame — whether in its length prefix,
    its CRC, or its payload — drops exactly that frame as a torn tail."""
    import random

    from repro.faults import JournalCorruptionPlan
    from repro.persist.journal import read_journal
    path = _journal(tmp_path, frames=2)
    data = path.read_bytes()
    start, payload_start, end = _frame_spans(data)[-1]
    want = {"length": range(start, start + 4),
            "crc": range(start + 4, payload_start),
            "payload": range(payload_start, end)}[region]
    low = max(8, len(data) - JournalCorruptionPlan.TAIL_REGION)
    # Replicate the plan's draw sequence to aim the single flip.
    seed = next(s for s in range(5000)
                if random.Random(s).randrange(low, len(data)) in want)
    JournalCorruptionPlan(seed=seed, mode="bitflip",
                          intensity=1).apply(str(path))
    doc = read_journal(path)
    assert doc.torn
    assert [frame["seq"] for frame in doc.frames] == [0]


def test_garbage_on_an_already_torn_tail_keeps_intact_frames(tmp_path):
    from repro.faults import JournalCorruptionPlan
    from repro.persist.journal import read_journal
    path = _journal(tmp_path, frames=3)
    path.write_bytes(path.read_bytes()[:-5])     # tear the last frame
    assert read_journal(path).torn
    JournalCorruptionPlan(seed=9, mode="garbage",
                          intensity=20).apply(str(path))
    doc = read_journal(path)
    assert doc.torn
    assert [frame["seq"] for frame in doc.frames] == [0, 1]


# ---------------------------------------------------------------------------
# JSON round-trips: the explorer's counterexample files depend on these
# ---------------------------------------------------------------------------

def test_fault_plan_json_round_trip():
    import json
    plan = (FaultPlan().crash(1.5, ("R", 2))
            .partition(2.0, "hub", ("leaf", 1), heal_at=4.0)
            .slow(3.0, 2.5, until=5.0).drop(4.0, 1, until=6.0))
    data = json.loads(json.dumps(plan.to_jsonable()))
    rebuilt = FaultPlan.from_jsonable(data)
    assert rebuilt.events == plan.events
    assert rebuilt.describe() == plan.describe()
    # The bare-list form (just the event list) is accepted too.
    assert FaultPlan.from_jsonable(data["events"]).events == plan.events


def test_corruption_plan_json_round_trip():
    import json

    from repro.faults import JournalCorruptionPlan
    plan = JournalCorruptionPlan(seed=9, mode="garbage", intensity=3)
    assert JournalCorruptionPlan.from_jsonable(
        json.loads(json.dumps(plan.to_jsonable()))) == plan
