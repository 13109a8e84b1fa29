"""The open chatroom scenario: churn, late arrivals, host criticality."""

from collections import Counter

from repro.faults import (FaultPlan, plan_for_seed, run_chaos_chatroom,
                          soak, verify_determinism)
from repro.scenarios import lookup


def test_chatroom_fault_free_run_delivers_all_rounds():
    run = run_chaos_chatroom(0, plan=FaultPlan())
    assert run.outcome == "completed"
    assert run.crashes == 0 and run.aborts == 0
    # Whoever made it into the room got numbered rounds in order, each
    # carrying its round's payload; late arrivals walked away ("missed").
    logs = [value for name, value in run.results.items()
            if name != "H" and isinstance(value, list)]
    assert logs, "no member joined the fault-free room"
    for log in logs:
        rounds = [r for r, _payload in log]
        assert rounds == sorted(set(rounds))
        assert all(payload == f"news-{r}" for r, payload in log)


def test_chatroom_soak_exercises_churn_and_late_arrivals():
    report = soak("chatroom", runs=40, seed=0)
    assert sum(report.outcomes.values()) == 40
    assert report.crashes > 0
    assert report.aborts > 0                 # host dies in some seeds
    assert report.outcomes["completed"] > report.outcomes["aborted"]
    # The stagger window is wider than the join window, so across a soak
    # some member must arrive after the seal and walk away.
    missed = Counter()
    for seed in range(40):
        run = lookup("chatroom").run(seed)
        missed.update(value for value in run.results.values()
                      if value == "missed")
    assert missed["missed"] > 0


def test_chatroom_is_deterministic():
    assert verify_determinism("chatroom", seed=0)
    assert verify_determinism("chatroom", seed=11)


def test_chatroom_host_crash_aborts_the_performance():
    # Seal at join_window=3.0; a host crash after that is critical.
    run = run_chaos_chatroom(0, plan=FaultPlan().crash(5.0, "H"))
    assert run.outcome == "aborted"
    assert "H" in run.killed
    assert run.aborts == 1


def test_chatroom_member_crash_degrades_gracefully():
    # Member 2 joins at seed 0 and plans to stay all rounds; killing it
    # mid-room demotes its role to absence, the performance completes.
    run = run_chaos_chatroom(0, plan=FaultPlan().crash(5.0, ("M", 2)))
    assert run.outcome == "completed"
    assert ("M", 2) in run.killed
    assert run.crashes >= 1 and run.aborts == 0


def test_chatroom_unhealed_partition_converges():
    # A member cut off forever: host sends to it burn send_patience and
    # the member departs on receive timeout — the run still terminates
    # residue-free within the horizon.
    plan = FaultPlan().partition(4.0, "hub", ("leaf", 2))
    run = run_chaos_chatroom(0, plan=plan)
    assert run.outcome == "completed"


def test_chatroom_plan_for_seed_matches_the_runner():
    for seed in (0, 7, 19):
        assert (plan_for_seed("chatroom", seed).describe()
                == lookup("chatroom").run(seed).faults)
