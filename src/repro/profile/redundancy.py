"""The dispatch-redundancy observatory: what a fast path would save.

Every system-register access walks the full classification ladder in
``arch/cpu.py`` (context -> encoding -> NEVE behaviour -> mechanism),
every trap re-checks which observe-only hooks are armed, and every
ledger charge fans out to however many consumers are attached.  All of
that work is *re-derivation*: for a fixed (config, register, context)
the answer never changes mid-run, so a precompiled dispatch table would
answer most of it with one lookup.

The observatory counts exactly that.  Each **site** keeps, per decision
key, how many times the decision was derived and whether the outcome
was stable; its report projects the table-hit rate a precompiled
dispatch table would see (every stable key's repeat derivations are
hits).  Three sites always exist:

* ``classification`` — keyed by (config, register, context, encoding,
  op); the outcome is the :class:`~repro.arch.cpu.AccessKind` the
  ladder resolved to.
* ``trap-dispatch`` — keyed by (config, context, exit reason); the
  outcome is the armed-hook set the trap path re-checked.
* ``hook-chain`` — keyed by (config, site, armed-consumer set); one
  derivation per ledger charge or trap hook dispatch, plus the total
  hook *invocations* the fan-out cost and what a fused callback would
  save.

Everything is per-instance (the statecheck gate stays clean) and
observe-only: no method here ever charges the ledger or touches a
registry.  The hot-path cost when no observatory is attached is one
``is None`` check, same contract as the tracer.
"""


def _outcome_label(outcome):
    """Stable string form of a decision outcome (enum .value or str)."""
    return str(getattr(outcome, "value", outcome))


class _Site:
    """One decision site: per-key derivation counts + outcome stability."""

    __slots__ = ("name", "derivations", "_counts", "_outcomes",
                 "_unstable")

    def __init__(self, name):
        self.name = name
        self.derivations = 0
        self._counts = {}    # key -> times derived
        self._outcomes = {}  # key -> first outcome label
        self._unstable = {}  # key -> True once two outcomes disagree

    def note(self, key, outcome):
        self.derivations += 1
        self._counts[key] = self._counts.get(key, 0) + 1
        label = _outcome_label(outcome)
        first = self._outcomes.setdefault(key, label)
        if label != first:
            self._unstable[key] = True

    def report(self, top=10):
        """The site's ``repro-profile/1`` redundancy entry."""
        stable = [key for key in self._counts if key not in self._unstable]
        projected_hits = sum(self._counts[key] - 1 for key in stable)
        ranked = sorted(self._counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return {
            "derivations": self.derivations,
            "distinct_keys": len(self._counts),
            "stable_keys": len(stable),
            "unstable_keys": len(self._unstable),
            "projected_hits": projected_hits,
            "projected_hit_rate": (projected_hits / self.derivations
                                   if self.derivations else 0.0),
            "top": [{"key": "/".join(key), "count": count,
                     "outcome": self._outcomes[key],
                     "stable": key not in self._unstable}
                    for key, count in ranked[:top]],
        }


class MachineRedundancy:
    """One machine's binding to a shared observatory.

    This is the object the hot path sees (``cpu.redundancy`` and
    ``ledger.profile_sink``): it carries the machine's config label so
    decision keys are per-(config, register, context), and a reference
    to the machine's ledger so the hook-chain site can read which
    consumers are armed without the ledger knowing about profiling.
    """

    __slots__ = ("observatory", "config", "_ledger")

    def __init__(self, observatory, config):
        self.observatory = observatory
        self.config = config
        self._ledger = None

    # -- hot-path notes (observe-only, never charge) --------------------

    def context_key(self, cpu):
        """Compact resolution-context label, snapshotted *before* the
        access resolves (the trap handler may world-switch)."""
        from repro.arch.exceptions import ExceptionLevel
        if cpu.current_el is ExceptionLevel.EL2:
            return "el2+e2h" if cpu.host_e2h else "el2"
        if cpu.at_virtual_el2:
            key = "vel2"
            if cpu.virtual_e2h:
                key += "+vhe"
            if cpu.neve_enabled:
                key += "+neve"
            return key
        return "el%d" % int(cpu.current_el)

    def note_classification(self, context, reg_name, enc, is_write, kind):
        """One classification ladder walk resolved to *kind*."""
        self.observatory.classification.note(
            (self.config, reg_name, context, enc.name.lower(),
             "w" if is_write else "r"), kind)

    def note_trap(self, cpu, reason):
        """One trap delivery; counts the armed-hook fan-out the trap
        path re-derives (tracer span + metrics histogram)."""
        observatory = self.observatory
        context = self.context_key(cpu)
        armed = []
        if cpu.tracer is not None:
            armed.append("tracer")
        if cpu.metrics is not None:
            armed.append("metrics")
        if cpu.fault_hook is not None:
            armed.append("fault_hook")
        if cpu.recovery_guard is not None:
            armed.append("guard")
        mask = "+".join(armed) or "none"
        observatory.trap_dispatch.note((self.config, context,
                                        _outcome_label(reason)), mask)
        observatory.hook_chain.note((self.config, "trap", mask), mask)
        observatory.hook_dispatches += 1
        # The trap path itself invokes tracer.begin_trap/end and the
        # metrics trap_span; guards and fault hooks fire on other sites.
        for hook in armed:
            if hook in ("tracer", "metrics"):
                observatory.hook_invocations += 1
                observatory.per_hook[hook] = \
                    observatory.per_hook.get(hook, 0) + 1

    def on_charge(self, cycles, category):
        """``CycleLedger.profile_sink``: one charge dispatch re-derives
        the armed-consumer set and pays one call per consumer.  A
        :class:`CycleLedger` has no push consumer, so on a real machine
        every dispatch is ``none``."""
        ledger = self._ledger
        observatory = self.observatory
        armed = [hook for hook in ("observer", "metrics_sink")
                 if getattr(ledger, hook, None) is not None]
        mask = "+".join(armed) or "none"
        observatory.hook_chain.note((self.config, "ledger.charge", mask),
                                    mask)
        observatory.hook_dispatches += 1
        observatory.hook_invocations += len(armed)
        for hook in armed:
            observatory.per_hook[hook] = \
                observatory.per_hook.get(hook, 0) + 1


class RedundancyObservatory:
    """Shared decision-site counters for one profiling run.

    One observatory can watch many machines (the bench sweep binds one
    per config); :meth:`bind` returns the per-machine view the hot path
    hooks onto.
    """

    def __init__(self):
        self.classification = _Site("classification")
        self.trap_dispatch = _Site("trap-dispatch")
        self.hook_chain = _Site("hook-chain")
        #: Hook fan-out accounting across both hook-chain dispatch
        #: points (ledger charges and trap deliveries).
        self.hook_dispatches = 0
        self.hook_invocations = 0
        self.per_hook = {}
        self._bindings = []

    def bind(self, config, ledger=None):
        """A :class:`MachineRedundancy` view labelled *config*."""
        binding = MachineRedundancy(self, config)
        binding._ledger = ledger
        self._bindings.append(binding)
        return binding

    def report(self, top=10):
        """The ``redundancy`` section of a ``repro-profile/1`` document.

        Always names the three mandatory sites; the ``hook-chain`` entry
        additionally carries the fan-out totals and the projected saving
        of fusing every armed consumer into one precompiled callback.
        """
        hook_chain = self.hook_chain.report(top=top)
        # A fused chain pays one call per dispatch that had at least one
        # consumer; today's chain pays one call per consumer.
        idle = sum(count for key, count
                   in self.hook_chain._counts.items() if key[2] == "none")
        dispatches_with_consumers = self.hook_dispatches - idle
        hook_chain.update({
            "dispatches": self.hook_dispatches,
            "invocations": self.hook_invocations,
            "per_hook": dict(sorted(self.per_hook.items())),
            "projected_fused_savings": max(
                0, self.hook_invocations - dispatches_with_consumers),
        })
        return {
            "sites": {
                "classification": self.classification.report(top=top),
                "trap-dispatch": self.trap_dispatch.report(top=top),
                "hook-chain": hook_chain,
            },
        }
