"""The fleet supervisor: crash/hang/corrupt recovery with exact books.

Shards are scheduled onto at most ``workers`` concurrent OS processes.
Each attempt is watched two ways: a **heartbeat timeout** (a worker that
stops sending per-machine heartbeats is hung) and a **wall-clock
deadline** (an attempt that outlives its budget is cut off even if it
keeps heartbeating).  A dead process without a result is a **crash**; a
result whose recomputed checksum disagrees, or that reports the wrong
machines, is **corrupt** and treated as a failure, never merged.

Failures retry with exponential backoff (``backoff_base_s * 2**n``,
capped).  A shard that fails more than ``max_retries`` times is
**quarantined**: excluded from the merge with an explicit verdict and
its full failure ladder attached — the fleet degrades to partial
results instead of failing.

The books must balance exactly: every planned shard ends ``completed``
(first try), ``retried`` (succeeded after failures) or ``quarantined``,
and ``completed + retried + quarantined == planned`` is enforced as an
invariant — a shard silently dropped is a supervisor bug, and
:meth:`Supervisor.run` raises rather than return cooked books.

Every decision the supervisor takes is also **emitted as an event** to
any attached sinks (:class:`~repro.fleet.telemetry.FlightRecorder`
journal, ``--watch`` renderer, tests): launches, chaos firings,
heartbeats, per-machine progress, failure classifications, backoffs,
quarantines, the merge and the final accounting.  Events carry the
fleet's virtual-cycle progress so the telemetry timeline is simulated
time, not wall time.  Messages of unknown type are no longer dropped on
the floor — they journal as ``unknown-message`` and count in the
supervisor-side ``repro_fleet_protocol_errors_total`` family (kept out
of the *merged* registry on purpose: the merge must stay a pure
function of the completed machine set).

Only wall-clock *scheduling* lives here.  Everything merged downstream
is a pure function of the completed machine set, so the supervised
export stays byte-identical to the sequential reference no matter how
ugly the run was (see :mod:`repro.fleet.merge`).
"""

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.fleet.chaos import ChaosAction
from repro.fleet.merge import merge_payloads
from repro.fleet.worker import STALL_SECONDS, payload_checksum, worker_entry
from repro.metrics.registry import MetricsRegistry


class FleetAccountingError(RuntimeError):
    """The supervisor's books do not balance — a shard went missing."""


@dataclass
class FleetConfig:
    """Supervision knobs (see docs/fleet.md for tuning guidance)."""

    workers: int = 2
    shard_timeout_s: float = 300.0     # wall-clock budget per attempt
    heartbeat_timeout_s: float = 30.0  # max silence between heartbeats
    max_retries: int = 2               # failures beyond this quarantine
    backoff_base_s: float = 0.05       # first retry delay
    backoff_cap_s: float = 2.0         # backoff ceiling
    poll_interval_s: float = 0.02      # supervisor loop tick
    stall_seconds: float = STALL_SECONDS  # chaos stall length
    trace: bool = False                # collect per-machine trace payloads

    def backoff_for(self, failure_count):
        """Delay before the retry after the *failure_count*-th failure:
        exponential from the base, capped."""
        delay = self.backoff_base_s * (2 ** max(0, failure_count - 1))
        return min(delay, self.backoff_cap_s)


@dataclass
class ShardFailure:
    """One failed attempt on one shard."""

    attempt: int
    reason: str  # "crash" | "hang" | "timeout" | "corrupt"
    detail: str

    def describe(self):
        return "attempt %d: %s (%s)" % (self.attempt, self.reason,
                                        self.detail)


@dataclass
class ShardState:
    """Everything the supervisor knows about one shard."""

    shard: object
    attempts: int = 0
    failures: list = field(default_factory=list)
    verdict: str = None  # "completed" | "retried" | "quarantined"
    records: list = None
    metrics_document: dict = None
    traces: dict = None  # machine_index -> trace payload (trace runs)

    @property
    def shard_id(self):
        return self.shard.shard_id


class _Attempt:
    """One live worker process being watched."""

    __slots__ = ("state", "proc", "conn", "started", "last_beat",
                 "deadline", "beats", "machines_done", "cycles")

    def __init__(self, state, proc, conn, now, timeout_s):
        self.state = state
        self.proc = proc
        self.conn = conn
        self.started = now
        self.last_beat = now
        self.deadline = now + timeout_s
        self.beats = 0
        self.machines_done = 0  # last monotonic progress the worker sent
        self.cycles = 0


class FleetResult:
    """The supervised run's outcome: per-shard books plus the merge."""

    def __init__(self, plan, config, chaos, states, merge, telemetry=None):
        self.plan = plan
        self.config = config
        self.chaos = chaos
        self.states = states  # shard-id ordered ShardStates
        self.merge = merge    # FleetMerge over completed+retried shards
        #: Supervisor-side registry (event and protocol-error counters).
        #: Deliberately separate from ``merge.registry`` — scheduling
        #: telemetry must never leak into the deterministic export.
        self.telemetry = telemetry

    @property
    def planned(self):
        return len(self.states)

    def _count(self, verdict):
        return sum(1 for state in self.states
                   if state.verdict == verdict)

    @property
    def completed(self):
        return self._count("completed")

    @property
    def retried(self):
        return self._count("retried")

    @property
    def quarantined(self):
        return self._count("quarantined")

    @property
    def accounting_ok(self):
        return (all(state.verdict is not None for state in self.states)
                and self.completed + self.retried + self.quarantined
                == self.planned)

    def assert_accounting(self):
        if not self.accounting_ok:
            missing = [state.shard_id for state in self.states
                       if state.verdict is None]
            raise FleetAccountingError(
                "fleet books do not balance: planned=%d completed=%d "
                "retried=%d quarantined=%d, unaccounted shards: %r"
                % (self.planned, self.completed, self.retried,
                   self.quarantined, missing))

    @property
    def ok(self):
        """Books balance and everything that merged was clean."""
        return (self.accounting_ok
                and (self.merge is None or self.merge.ok))

    @property
    def protocol_errors(self):
        """Messages of unknown type the workers sent (0 on clean runs)."""
        if self.telemetry is None:
            return 0
        family = self.telemetry.get("repro_fleet_protocol_errors_total")
        return family.total()

    def accounting_line(self):
        return ("planned=%d completed=%d retried=%d quarantined=%d"
                % (self.planned, self.completed, self.retried,
                   self.quarantined))


class Supervisor:
    """Runs one :class:`~repro.fleet.plan.FleetPlan` to completion.

    *recorder* is an optional :class:`~repro.fleet.telemetry.
    FlightRecorder`; *sinks* is any iterable of callables that receive
    each event dict as it is emitted (the ``--watch`` renderer is just
    a sink).  The recorder and the sinks see the identical stream.
    """

    def __init__(self, plan, config=None, chaos=None, recorder=None,
                 sinks=()):
        self.plan = plan
        self.config = config if config is not None else FleetConfig()
        self.chaos = chaos
        self.recorder = recorder
        self.sinks = tuple(sinks)
        self._vcycles = 0  # fleet virtual-cycle progress (telemetry time)
        self.telemetry = MetricsRegistry()
        self._events_total = self.telemetry.counter(
            "repro_fleet_events_total",
            "Supervisor events emitted, by event type", ("event",))
        self._protocol_errors = self.telemetry.counter(
            "repro_fleet_protocol_errors_total",
            "Worker messages the supervisor could not interpret, by "
            "message type", ("kind",))
        self.telemetry.clock = lambda: self._vcycles
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])

    # -- the event stream ------------------------------------------------

    def _emit(self, event, **fields):
        """Emit one supervision event to the journal and every sink."""
        entry = {"event": event, "vcycles": self._vcycles}
        entry.update(fields)
        self._events_total.labels(event).inc()
        if self.recorder is not None:
            self.recorder.record(entry)
        for sink in self.sinks:
            sink(entry)
        return entry

    # -- the supervision loop --------------------------------------------

    def run(self):
        """Supervise every shard to a verdict; returns a FleetResult
        whose books are guaranteed to balance (or raises)."""
        states = [ShardState(shard) for shard in self.plan.shards]
        self._emit("run-begin", seed=self.plan.seed,
                   machines=self.plan.machine_count, shards=len(states),
                   workers=self.config.workers,
                   chaos=self.chaos is not None,
                   trace=self.config.trace)
        ready = [(0.0, state) for state in states]  # (not_before, state)
        running = []

        while ready or running:
            now = time.monotonic()  # lint: allow(sim-nondeterminism)
            ready.sort(key=lambda item: item[0])
            while (len(running) < self.config.workers and ready
                    and ready[0][0] <= now):
                _, state = ready.pop(0)
                running.append(self._launch(state, now))
            for attempt in list(running):
                finished, failure = self._poll_attempt(
                    attempt,
                    time.monotonic())  # lint: allow(sim-nondeterminism)
                if not finished:
                    continue
                running.remove(attempt)
                if failure is None:
                    state = attempt.state
                    state.verdict = ("completed" if not state.failures
                                     else "retried")
                    self._emit("verdict", shard=state.shard_id,
                               verdict=state.verdict,
                               attempts=state.attempts)
                else:
                    retry_at = self._register_failure(attempt, failure)
                    if retry_at is not None:
                        ready.append((retry_at, attempt.state))
            if running:
                time.sleep(self.config.poll_interval_s)

        merge = merge_payloads(
            (state.shard_id, state.records, state.metrics_document,
             state.traces)
            for state in states
            if state.verdict in ("completed", "retried"))
        self._emit("merge", digest=merge.digest,
                   machine_count=merge.machine_count, ok=merge.ok)
        result = FleetResult(self.plan, self.config, self.chaos, states,
                             merge, telemetry=self.telemetry)
        self._emit("run-end", accounting={
            "planned": result.planned,
            "completed": result.completed,
            "retried": result.retried,
            "quarantined": result.quarantined,
        }, ok=result.ok)
        result.assert_accounting()
        return result

    # -- attempt lifecycle -----------------------------------------------

    def _launch(self, state, now):
        action = ChaosAction.NONE
        if self.chaos is not None:
            action = self.chaos.action_for(state.shard_id, state.attempts)
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_entry,
            args=(child_conn, state.shard, state.attempts, action.value,
                  self.config.stall_seconds, self.config.trace),
            daemon=True)
        proc.start()
        child_conn.close()  # the worker holds the only send end now
        state.attempts += 1
        self._emit("launch", shard=state.shard_id,
                   attempt=state.attempts - 1,
                   machines=len(state.shard.machines),
                   chaos_action=action.name.lower())
        if action is not ChaosAction.NONE:
            self._emit("chaos", shard=state.shard_id,
                       attempt=state.attempts - 1,
                       action=action.name.lower())
        return _Attempt(state, proc, parent_conn, now,
                        self.config.shard_timeout_s)

    def _poll_attempt(self, attempt, now):
        """Advance one live attempt.  Returns ``(finished, failure)``:
        not finished yet, finished clean, or finished with a
        :class:`ShardFailure`."""
        result = self._drain(attempt)
        if result is not None:
            self._reap(attempt)
            return True, self._accept(attempt, result)
        if not attempt.proc.is_alive():
            # Dead without a result — but the pipe may still hold one
            # sent just before exiting.
            result = self._drain(attempt)
            self._reap(attempt)
            if result is not None:
                return True, self._accept(attempt, result)
            return True, ShardFailure(
                attempt.state.attempts - 1, "crash",
                "worker exited with code %s before sending a result"
                % attempt.proc.exitcode)
        if now > attempt.deadline:
            self._reap(attempt, force=True)
            return True, ShardFailure(
                attempt.state.attempts - 1, "timeout",
                "attempt exceeded the %.1fs wall-clock budget"
                % self.config.shard_timeout_s)
        if now - attempt.last_beat > self.config.heartbeat_timeout_s:
            self._reap(attempt, force=True)
            return True, ShardFailure(
                attempt.state.attempts - 1, "hang",
                "no heartbeat for %.1fs (last progress: %d/%d machines, "
                "%d cycles)"
                % (now - attempt.last_beat, attempt.machines_done,
                   len(attempt.state.shard.machines), attempt.cycles))
        return False, None

    def _drain(self, attempt):
        """Pull every queued message; returns the result message if one
        arrived.  Heartbeats feed the hang detector, progress events
        stream to the sinks, anything else journals as a protocol
        error — never a silent drop."""
        result = None
        shard_id = attempt.state.shard_id
        try:
            while attempt.conn.poll(0):
                message = attempt.conn.recv()
                kind = message.get("type") if isinstance(message, dict) \
                    else None
                if kind == "heartbeat":
                    attempt.last_beat = (
                        time.monotonic())  # lint: allow(sim-nondeterminism)
                    attempt.beats += 1
                    attempt.machines_done = max(
                        attempt.machines_done,
                        message.get("machines_done", 0))
                    attempt.cycles = max(attempt.cycles,
                                         message.get("cycles", 0))
                    self._emit("heartbeat", shard=shard_id,
                               machine=message.get("machine"),
                               machines_done=message.get("machines_done"),
                               cycles=message.get("cycles"))
                elif kind == "progress":
                    # Progress counts as a heartbeat too: a worker that
                    # streams machine results is visibly not hung.
                    attempt.last_beat = (
                        time.monotonic())  # lint: allow(sim-nondeterminism)
                    attempt.machines_done = max(
                        attempt.machines_done,
                        message.get("machines_done", 0))
                    machine_cycles = message.get("cycles", 0)
                    attempt.cycles += machine_cycles
                    self._vcycles += machine_cycles
                    self._emit(
                        "progress", shard=shard_id,
                        machine=message.get("machine"),
                        verdict=message.get("verdict"),
                        ok=message.get("ok"),
                        cycles=machine_cycles,
                        traps=message.get("traps"),
                        recoveries=message.get("recoveries"),
                        machines_done=message.get("machines_done"),
                        machines_planned=message.get("machines_planned"),
                        metrics_delta=message.get("metrics_delta"))
                elif kind == "result":
                    result = message
                else:
                    self._protocol_errors.labels(str(kind)).inc()
                    self._emit("unknown-message", shard=shard_id,
                               message_type=kind)
        except (EOFError, OSError):
            pass
        return result

    def _accept(self, attempt, message):
        """Validate a result message; a bad payload is a failure, not a
        merge input.  Returns None on success, a ShardFailure otherwise."""
        state = attempt.state
        records = message.get("records")
        metrics_document = message.get("metrics")
        traces = message.get("traces")
        checksum = payload_checksum(records, metrics_document, traces)
        self._emit("result", shard=state.shard_id,
                   attempt=state.attempts - 1,
                   machines=len(records or ()),
                   checksum=message.get("checksum"))
        if checksum != message.get("checksum"):
            return ShardFailure(
                state.attempts - 1, "corrupt",
                "payload checksum mismatch: announced %.12s…, "
                "recomputed %.12s…"
                % (message.get("checksum") or "", checksum))
        got = sorted(record["machine"] for record in records)
        want = sorted(state.shard.machine_indexes)
        if got != want:
            return ShardFailure(
                state.attempts - 1, "corrupt",
                "payload reports machines %r, shard owns %r"
                % (got, want))
        state.records = records
        state.metrics_document = metrics_document
        state.traces = traces
        return None

    def _register_failure(self, attempt, failure):
        """Book one failure; returns the monotonic retry time, or None
        when the shard crossed the quarantine threshold."""
        state = attempt.state
        state.failures.append(failure)
        self._emit("failure", shard=state.shard_id,
                   attempt=failure.attempt, reason=failure.reason,
                   detail=failure.detail)
        if len(state.failures) > self.config.max_retries:
            state.verdict = "quarantined"
            state.records = None
            state.metrics_document = None
            state.traces = None
            self._emit("quarantine", shard=state.shard_id,
                       failures=len(state.failures))
            return None
        delay = self.config.backoff_for(len(state.failures))
        self._emit("retry", shard=state.shard_id,
                   attempt=state.attempts, delay_s=delay)
        now = time.monotonic()  # lint: allow(sim-nondeterminism)
        return now + delay

    def _reap(self, attempt, force=False):
        """Tear one attempt's process down and close its pipe."""
        proc = attempt.proc
        if force and proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.kill()
        proc.join(timeout=5.0)
        try:
            attempt.conn.close()
        except OSError:
            pass


def run_fleet(plan, config=None, chaos=None, recorder=None, sinks=()):
    """Convenience wrapper: supervise *plan* and return the FleetResult."""
    return Supervisor(plan, config=config, chaos=chaos, recorder=recorder,
                      sinks=sinks).run()
