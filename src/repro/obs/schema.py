"""Trace schema: event vocabulary and JSONL validation.

A trace line is one JSON object.  Every record carries ``cycle`` (int,
>= 0), ``event`` (one of :data:`EVENTS` or the ``trace_meta`` header)
and ``packet`` (int); flit-scoped events additionally carry ``flit``.
Event-specific obligations:

* ``stitch``  — ``parent`` (the absorbing flit's id, != ``flit``)
* ``pool``    — ``until`` (the partition's unblock cycle, >= ``cycle``)
* ``wire_start`` — ``link`` (lane name) and ``dur`` (serialization cycles)

Fault injection (repro.faults) adds four events: ``drop`` (the wire
transmission vanished), ``corrupt`` (it arrived but failed the ingress
CRC), ``crc_ok`` (it arrived and passed), and ``retransmit`` (the sender
re-sent it).  The sending link decides the CRC check with the
transmission's fate, so it emits ``corrupt``/``crc_ok`` — like
``deliver`` — at send time, stamped with the arrival cycle.
``retransmit`` legally *rewinds* a flit's lifecycle — the flit goes
back on the wire after having been dropped or delivered corrupted — so
the sequence checker resets that flit's rank rather than flagging the
decrease; cycle monotonicity still applies.

Beyond per-record shape, :func:`validate_records` checks per-flit
*sequence* sanity: a flit must be staged before it is ejected, ejected
before it starts on the wire, and on the wire before it is delivered —
stitched flits instead end with a ``stitch`` record and are delivered
under their parent's ``deliver``.

Run from the command line via ``python -m repro.obs.validate``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: packet-scoped lifecycle events
PACKET_EVENTS = ("inject", "trim")
#: flit-scoped lifecycle events
FLIT_EVENTS = (
    "stage",
    "pool",
    "stitch",
    "eject",
    "wire_start",
    "deliver",
    "retransmit",
    "drop",
    "corrupt",
    "crc_ok",
)
#: the full event vocabulary
EVENTS = PACKET_EVENTS + FLIT_EVENTS

#: rank in the legal per-flit ordering (events may repeat a rank; a
#: lower-ranked event must never follow a higher-ranked one for a flit,
#: except ``stage``/``pool`` cycles while a pooled flit waits and
#: ``retransmit``, which resets the flit to just-ejected)
_FLIT_ORDER = {
    "stage": 0,
    "pool": 1,
    "stitch": 2,
    "eject": 2,
    "wire_start": 3,
    "deliver": 4,
    "retransmit": 2,
    "drop": 3,
    "corrupt": 4,
    "crc_ok": 4,
}


def validate_record(record: Dict[str, object]) -> List[str]:
    """Shape-check one trace record; returns human-readable errors."""
    errors: List[str] = []
    event = record.get("event")
    if event == "trace_meta":
        if not isinstance(record.get("schema"), int):
            errors.append("trace_meta: missing integer 'schema'")
        return errors
    if event not in EVENTS:
        errors.append(f"unknown event {event!r}")
        return errors
    cycle = record.get("cycle")
    if not isinstance(cycle, int) or cycle < 0:
        errors.append(f"{event}: 'cycle' must be a non-negative int, got {cycle!r}")
    if not isinstance(record.get("packet"), int):
        errors.append(f"{event}: missing integer 'packet'")
    if event in FLIT_EVENTS and not isinstance(record.get("flit"), int):
        errors.append(f"{event}: missing integer 'flit'")
    if event == "stitch":
        parent = record.get("parent")
        if not isinstance(parent, int):
            errors.append("stitch: missing integer 'parent'")
        elif parent == record.get("flit"):
            errors.append("stitch: flit cannot be its own parent")
    if event == "pool":
        until = record.get("until")
        if not isinstance(until, int):
            errors.append("pool: missing integer 'until'")
        elif isinstance(cycle, int) and until < cycle:
            errors.append(f"pool: 'until' ({until}) before 'cycle' ({cycle})")
    if event == "wire_start":
        if not isinstance(record.get("link"), str):
            errors.append("wire_start: missing string 'link'")
        if not isinstance(record.get("dur"), (int, float)):
            errors.append("wire_start: missing numeric 'dur'")
    return errors


def validate_records(records: Iterable[Dict[str, object]]) -> List[str]:
    """Validate record shapes plus per-flit lifecycle ordering."""
    errors: List[str] = []
    last_rank: Dict[int, int] = {}
    last_cycle: Dict[int, int] = {}
    for index, record in enumerate(records):
        for error in validate_record(record):
            errors.append(f"record {index}: {error}")
        event = record.get("event")
        fid = record.get("flit")
        if not isinstance(fid, int) or event not in _FLIT_ORDER:
            continue
        rank = _FLIT_ORDER[event]
        cycle = record.get("cycle")
        if not isinstance(cycle, int):
            continue
        prev_rank = last_rank.get(fid)
        if prev_rank is not None:
            if cycle < last_cycle[fid]:
                errors.append(
                    f"record {index}: flit {fid} {event} at cycle {cycle} "
                    f"before its previous event at {last_cycle[fid]}"
                )
            if event == "retransmit":
                # a legal lifecycle rewind: the flit re-enters the wire
                # after a drop/corrupt; reset its rank to just-ejected
                last_rank[fid] = rank
                last_cycle[fid] = cycle
                continue
            if rank < prev_rank:
                errors.append(
                    f"record {index}: flit {fid} event {event} (rank {rank}) "
                    f"after a rank-{prev_rank} event"
                )
        elif rank >= 3:
            # a flit must be staged before it reaches the wire; deliveries
            # of stitched children are keyed to the parent flit, so a bare
            # wire_start/deliver means the stage record was lost (ring
            # overflow) or never emitted
            errors.append(
                f"record {index}: flit {fid} {event} without a prior stage"
            )
        last_rank[fid] = max(rank, prev_rank if prev_rank is not None else rank)
        last_cycle[fid] = cycle
    return errors


def validate_jsonl(path: str, allow_partial: bool = False) -> List[str]:
    """Validate a trace file; ``allow_partial`` skips sequence checks
    (needed when the ring buffer dropped the oldest events)."""
    from repro.obs.tracer import iter_jsonl

    records = list(iter_jsonl(path))
    meta = records[0] if records and records[0].get("event") == "trace_meta" else None
    if meta is None:
        return ["missing trace_meta header line"]
    body = records[1:]
    if allow_partial or (isinstance(meta.get("dropped"), int) and meta["dropped"] > 0):
        errors: List[str] = []
        for index, record in enumerate(body):
            errors.extend(f"record {index}: {e}" for e in validate_record(record))
        return errors
    return validate_records(body)
