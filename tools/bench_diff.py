#!/usr/bin/env python3
"""Diff a fresh bench JSON document against its checked-in trajectory
snapshot (bench/trajectory/).

Timings vary per machine and are ignored: every key ending in `_us` or
`_ms` (the metrics schema names each timer by its unit) and the speedup
ratios derived from them. Everything else the benches record is a
deterministic counter - solver calls, cache traffic, warm/iso reuse, slice
sizes - fixed by (spec, plan, jobs=2), so a drift against the snapshot
means the engine's behavior changed, not the hardware. That is the point:
the snapshot pins the *trajectory* (how the engines get their answers), CI
re-derives it on every run, and an intentional change updates the snapshot
in the same commit.

usage: bench_diff.py <snapshot.json> <fresh.json>
"""

import json
import sys

# Ratios of two timings: as machine-dependent as the timings themselves.
TIMING_RATIOS = {"speedup_vs_cold", "speedup_vs_1"}
# Scheduling-dependent: a crashed worker is only respawned while work
# remains, so the respawn count depends on which worker drains the queue
# first. Excluded from the exact diff; the acceptance check below still
# requires at least one respawn in the quarantine record.
SCHEDULING_KEYS = {"workers_respawned"}


def is_timing(key):
    return key.endswith(("_us", "_ms")) or key in TIMING_RATIOS


def counters(values):
    return {
        k: v
        for k, v in values.items()
        if not is_timing(k) and k not in SCHEDULING_KEYS
    }


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    snapshot_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(snapshot_path) as f:
        snapshot = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)

    errors = []
    snap_records = {r["name"]: r["values"] for r in snapshot["records"]}
    fresh_records = {r["name"]: r["values"] for r in fresh["records"]}

    missing = sorted(set(snap_records) - set(fresh_records))
    extra = sorted(set(fresh_records) - set(snap_records))
    if missing:
        errors.append(f"records missing from fresh run: {', '.join(missing)}")
    if extra:
        errors.append(f"records not in snapshot: {', '.join(extra)}")

    for name in sorted(set(snap_records) & set(fresh_records)):
        want = counters(snap_records[name])
        got = counters(fresh_records[name])
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                errors.append(
                    f"{name}: {key} = {got.get(key)} "
                    f"(snapshot: {want.get(key)})"
                )

    # The acceptance signals behind the counters, stated explicitly so a
    # jointly drifted snapshot+run cannot silently regress them.
    warm = fresh_records.get("isowarm/warm")
    cold = fresh_records.get("isowarm/cold")
    if warm is not None:
        if (
            warm.get("iso_verdict_reuses", 0) <= 0
            and warm.get("iso_reuses", 0) <= 0
        ):
            errors.append("isowarm/warm: no cross-isomorphic reuse at all")
        if cold is not None and warm.get("solver_calls", 0) >= cold.get(
            "solver_calls", 0
        ):
            errors.append(
                "isowarm/warm: verdict merging saved no solver calls"
            )
    if cold is not None and (
        cold.get("iso_reuses", 0) != 0
        or cold.get("iso_verdict_reuses", 0) != 0
    ):
        errors.append("isowarm/cold: cold baseline must not iso-rebind")
    quarantine = fresh_records.get("faults/quarantine")
    if quarantine is not None:
        if quarantine.get("quarantined", 0) != 1:
            errors.append(
                "faults/quarantine: crash-looping job not quarantined "
                "exactly once"
            )
        if quarantine.get("workers_respawned", 0) < 1:
            errors.append("faults/quarantine: fleet was never respawned")
    escalation = fresh_records.get("faults/escalation")
    if escalation is not None:
        if escalation.get("escalations", 0) <= 0:
            errors.append("faults/escalation: no unknown verdict escalated")
        if escalation.get("escalations") != escalation.get(
            "escalations_rescued"
        ):
            errors.append(
                "faults/escalation: an escalated retry was not rescued"
            )
        if escalation.get("unknown_verdicts", -1) != 0:
            errors.append(
                "faults/escalation: unknowns survived escalation"
            )

    if errors:
        print(f"bench trajectory drift vs {snapshot_path}:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        sys.exit(1)
    kept = sum(len(counters(v)) for v in snap_records.values())
    print(f"bench_diff: {len(snap_records)} records, {kept} counters match")


if __name__ == "__main__":
    main()
