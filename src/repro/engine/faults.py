"""Deterministic fault injection for the distributed execution tier.

Failure handling that is only ever exercised by real failures is failure
handling that is never exercised at all.  This module makes every failure
mode of the node plane a *reproducible input*: a :class:`FaultPlan` is a
deterministic, serializable description of which node misbehaves, when,
and how — crash on the k-th unit, hang mid-computation, drop or corrupt a
result line, reply with a structured error, come up late.  The plan
travels to each node inside its ``init`` message, so the same spec string
fires the same faults on every run; the fault-matrix and hypothesis
suites in ``tests/engine/test_fault_tolerance.py`` are tier-1 tests, not
flakes waiting for a real crash.

Spec grammar (one fault per ``;``-separated clause)::

    kind@node[:key=value[,key=value...]]

    crash@node-1:after=2             exit abruptly on receiving the 3rd unit
    crash@node-1:after=2,phase=work  compute the 3rd unit, exit before replying
    crash@node-1:after=2,phase=carry start the 3rd unit, exit waiting for its carry
    hang@node-0:unit=3               go silent (heartbeats too) on global unit 3
    drop@node-0:after=0              compute the 1st unit, never send the result
    corrupt@node-0:after=1           garble the 2nd result line on the wire
    error@node-0:after=0             answer the 1st unit with an error reply
    ready_delay@node-1:seconds=0.5   sleep before announcing readiness

``after`` counts units the node has *completed* (node-local, default 0 —
the fault fires on the node's next unit); ``unit`` matches the global
unit index instead.  When both are given, both must match.  Every fault
fires at most once.

The plan is *injection* only: detection, lease release, retry and
quarantine live in :mod:`repro.engine.node` and the
``DistributedExecutor`` — the invariant under test is that merged pairs
and deterministic counters stay byte-identical to serial no matter which
faults fire.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

#: Fault kinds a plan may carry.
FAULT_KINDS = ("crash", "hang", "drop", "corrupt", "error", "ready_delay")

#: Crash phases: ``"recv"`` exits on receipt of the unit (before any
#: work), ``"work"`` exits after computing it but before replying — the
#: two ends of the idempotent-re-execution window — and ``"carry"`` exits
#: where a chained NM unit waits for its inbound carry (after its leaf
#: cells and ConditionalFilter); in a run without a carry it never fires.
CRASH_PHASES = ("recv", "work", "carry")


@dataclass(frozen=True)
class Fault:
    """One injected misbehaviour of one node."""

    kind: str
    node: str
    #: Node-local completed-unit count at which the fault arms (``None``
    #: with ``unit`` set = armed for that global unit whenever it arrives).
    after: Optional[int] = 0
    #: Global unit index the fault is pinned to (``None`` = any unit).
    unit: Optional[int] = None
    #: Crash phase (crash faults only).
    phase: str = "recv"
    #: Sleep length (``ready_delay`` faults only).
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not self.node:
            raise ValueError("a fault must name its target node")
        if self.phase not in CRASH_PHASES:
            raise ValueError(
                f"unknown crash phase {self.phase!r}; expected one of {CRASH_PHASES}"
            )
        if self.after is not None and self.after < 0:
            raise ValueError(f"fault after= must be >= 0 (got {self.after})")
        if self.unit is not None and self.unit < 0:
            raise ValueError(f"fault unit= must be >= 0 (got {self.unit})")
        if self.seconds < 0:
            raise ValueError(f"fault seconds= must be >= 0 (got {self.seconds})")

    # -- wire form (crosses the node init message as JSON) ---------------
    def to_wire(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "node": self.node,
            "after": self.after,
            "unit": self.unit,
            "phase": self.phase,
            "seconds": self.seconds,
        }

    @staticmethod
    def from_wire(wire: Dict[str, Any]) -> "Fault":
        return Fault(
            kind=wire["kind"],
            node=wire["node"],
            after=wire.get("after"),
            unit=wire.get("unit"),
            phase=wire.get("phase", "recv"),
            seconds=float(wire.get("seconds", 0.0)),
        )

    def to_clause(self) -> str:
        """The fault as one spec clause (inverse of the parser)."""
        options = []
        if self.after is not None:
            options.append(f"after={self.after}")
        if self.unit is not None:
            options.append(f"unit={self.unit}")
        if self.kind == "crash" and self.phase != "recv":
            options.append(f"phase={self.phase}")
        if self.kind == "ready_delay":
            options.append(f"seconds={self.seconds}")
        clause = f"{self.kind}@{self.node}"
        return clause + (":" + ",".join(options) if options else "")


def _parse_clause(clause: str) -> Fault:
    head, _, options = clause.partition(":")
    kind, at, node = head.partition("@")
    if not at or not kind or not node:
        raise ValueError(
            f"bad fault clause {clause!r}: expected 'kind@node[:key=value,...]'"
        )
    fields: Dict[str, Any] = {"kind": kind.strip(), "node": node.strip()}
    explicit_after = False
    for option in filter(None, (o.strip() for o in options.split(","))):
        key, eq, value = option.partition("=")
        if not eq:
            raise ValueError(f"bad fault option {option!r} in {clause!r}")
        key = key.strip()
        value = value.strip()
        if key == "after":
            fields["after"] = int(value)
            explicit_after = True
        elif key == "unit":
            fields["unit"] = int(value)
        elif key == "phase":
            fields["phase"] = value
        elif key == "seconds":
            fields["seconds"] = float(value)
        else:
            raise ValueError(f"unknown fault option {key!r} in {clause!r}")
    if fields.get("unit") is not None and not explicit_after:
        fields["after"] = None  # pinned to a global unit, any local count
    return Fault(**fields)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults for one distributed run."""

    faults: tuple = ()

    @staticmethod
    def from_spec(spec: str) -> "FaultPlan":
        """Parse a ``;``-separated clause string (see module docstring)."""
        clauses = [c.strip() for c in spec.split(";") if c.strip()]
        if not clauses:
            raise ValueError(f"empty fault plan spec {spec!r}")
        return FaultPlan(faults=tuple(_parse_clause(c) for c in clauses))

    def to_spec(self) -> str:
        return ";".join(fault.to_clause() for fault in self.faults)

    @staticmethod
    def random(
        seed: int,
        nodes: int,
        count: int = 2,
        max_after: int = 3,
        unit_count: Optional[int] = None,
    ) -> "FaultPlan":
        """A seed-deterministic plan: same arguments, same faults.

        Crash phases, targets and arming points are drawn from
        ``random.Random(seed)``; ``ready_delay`` draws tiny sleeps so a
        randomized suite stays fast.
        """
        rng = random.Random(seed)
        faults: List[Fault] = []
        kinds = [k for k in FAULT_KINDS if k != "hang"]  # hangs cost a timeout
        for _ in range(count):
            kind = rng.choice(kinds)
            node = f"node-{rng.randrange(nodes)}"
            if kind == "ready_delay":
                faults.append(
                    Fault(kind, node, seconds=round(rng.uniform(0.05, 0.3), 3))
                )
            elif kind == "crash":
                faults.append(
                    Fault(
                        kind,
                        node,
                        after=rng.randrange(max_after + 1),
                        unit=(
                            rng.randrange(unit_count)
                            if unit_count and rng.random() < 0.3
                            else None
                        ),
                        phase=rng.choice(CRASH_PHASES),
                    )
                )
            else:
                faults.append(Fault(kind, node, after=rng.randrange(max_after + 1)))
        return FaultPlan(faults=tuple(faults))

    def for_node(self, worker_id: str) -> List[Dict[str, Any]]:
        """The wire form of this node's faults (what rides the init spec)."""
        return [f.to_wire() for f in self.faults if f.node == worker_id]


class FaultInjector:
    """Node-side interpreter of a fault list (wire dicts from the init).

    The node's main loop consults it at the three injection points —
    readiness, unit receipt, and reply — and counts completed units so
    ``after`` clauses arm deterministically.  Each fault fires at most once.
    """

    def __init__(self, faults: Sequence[Dict[str, Any]]):
        self._faults = [Fault.from_wire(wire) for wire in faults or ()]
        self._armed = list(self._faults)
        self.units_completed = 0

    def ready_delay(self) -> float:
        """Total pre-ready sleep; consumes the ``ready_delay`` faults."""
        delays = [f for f in self._armed if f.kind == "ready_delay"]
        for fault in delays:
            self._armed.remove(fault)
        return sum(f.seconds for f in delays)

    def on_unit(self, unit_index: int) -> Optional[Fault]:
        """The fault (if any) that fires for this unit; consumes it."""
        for fault in self._armed:
            if fault.kind == "ready_delay":
                continue
            if fault.after is not None and fault.after != self.units_completed:
                continue
            if fault.unit is not None and fault.unit != unit_index:
                continue
            self._armed.remove(fault)
            return fault
        return None

    def unit_completed(self) -> None:
        self.units_completed += 1
