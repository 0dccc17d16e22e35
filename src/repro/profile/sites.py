"""The phase site table: host code -> simulator phase taxonomy.

The profiler attributes every Python frame to a **phase** so the
host-time table lines up with the virtual-cycle span names the tracer
emits (``trap:*`` spans, ``ws.*`` world-switch phases, ``defer:*``
instants).  The mapping is data, not code: ordered ``(file suffix,
function name or None, phase)`` rules, first match wins.  A ``None``
function name matches any function in the file; ``{name}`` in the phase
is replaced with the function name (this is how every
``world_switch.py`` function becomes its own ``ws.<name>`` phase
without 15 rows).

Frames that match no rule inherit the phase of their caller — a helper
called from trap dispatch is trap-dispatch work — and top-level
unmatched frames land in ``other``.

The table is a read-only module constant (tuples all the way down), so
the statecheck shardability gate classifies it as a constant table; all
mutable profiler state lives on :class:`~repro.profile.profiler.
HostProfiler` instances.
"""

#: Ordered (file suffix, function name or None, phase) rules.
SITE_RULES = (
    # -- the precompiled dispatch fast path -----------------------------
    ("repro/arch/cpu.py", "_fast_sysreg_access", "dispatch.fastpath"),
    ("repro/arch/cpu.py", "_resolve_verdict", "dispatch.resolve"),
    ("repro/arch/dispatch.py", None, "dispatch.table"),
    # -- trap dispatch and sysreg classification (arch/cpu.py) ----------
    ("repro/arch/cpu.py", "_trap", "trap.dispatch"),
    ("repro/arch/cpu.py", "_sysreg_trap", "trap.dispatch"),
    ("repro/arch/cpu.py", "sysreg_access", "classify.sysreg_access"),
    ("repro/arch/cpu.py", "_access_at_el2", "classify.el2"),
    ("repro/arch/cpu.py", "_access_at_virtual_el2", "classify.virtual_el2"),
    ("repro/arch/cpu.py", "_virtual_el2_reg_access", "classify.virtual_el2"),
    ("repro/arch/cpu.py", "_access_at_guest_el1", "classify.guest_el1"),
    ("repro/arch/cpu.py", "_deferred_access", "vncr.deferred"),
    ("repro/arch/cpu.py", "_gic_cpu_access", "gic.cpu_interface"),
    ("repro/arch/cpu.py", None, "cpu.{name}"),
    ("repro/arch/registers.py", "lookup_register", "classify.lookup"),
    ("repro/arch/registers.py", None, "cpu.registers"),
    ("repro/core/classification.py", None, "classify.tables"),
    ("repro/core/conformance.py", None, "classify.conformance"),
    # -- the NEVE runtime and the deferred-access page ------------------
    ("repro/core/neve.py", None, "vncr.host"),
    ("repro/core/vncr.py", None, "vncr.page"),
    # -- world-switch phases: one phase per function, matching the
    #    tracer's ws.* span names --------------------------------------
    ("repro/hypervisor/world_switch.py", "make_ops", "ws.make_ops"),
    ("repro/hypervisor/world_switch.py", None, "ws.{name}"),
    # -- the rest of the hypervisor stack -------------------------------
    ("repro/hypervisor/nested.py", None, "hyp.nested"),
    ("repro/hypervisor/kvm.py", None, "hyp.kvm"),
    ("repro/hypervisor/vcpu.py", None, "hyp.vcpu"),
    ("repro/hypervisor/scheduler.py", None, "hyp.scheduler"),
    ("repro/arch/gic.py", None, "gic.distributor"),
    ("repro/arch/timer.py", None, "timer"),
    ("repro/memory/", None, "mem"),
    ("repro/x86/", None, "x86"),
    # -- hook-chain consumers: the observe-only fan-out the ledger and
    #    the trap path pay per event ------------------------------------
    ("repro/trace/spans.py", None, "hooks.tracer"),
    ("repro/metrics/instrument.py", None, "hooks.metrics"),
    ("repro/metrics/registry.py", None, "hooks.registry"),
    ("repro/metrics/counters.py", None, "hooks.counters"),
    ("repro/metrics/cycles.py", "charge", "ledger.charge"),
    ("repro/metrics/cycles.py", None, "ledger.other"),
    ("repro/faults/points.py", None, "hooks.fault_injector"),
    ("repro/faults/recovery.py", None, "recovery"),
    ("repro/faults/", None, "faults"),
    # -- harness and workloads ------------------------------------------
    ("repro/workloads/", None, "workload"),
    ("repro/harness/", None, "harness"),
    ("repro/fleet/", None, "fleet"),
)

#: Phase prefix -> report group.  The redundancy report and the phase
#: table group rows by these so "where do host seconds go" reads at a
#: glance (trap dispatch vs. classification vs. world switch vs. hooks).
PHASE_GROUPS = (
    ("dispatch.", "dispatch-table"),
    ("trap.", "trap-dispatch"),
    ("classify.", "classification"),
    ("ws.", "world-switch"),
    ("vncr.", "vncr"),
    ("hooks.", "hook-chain"),
    ("ledger.", "hook-chain"),
    ("gic.", "gic"),
    ("hyp.", "hypervisor"),
)


def phase_for_code(filename, funcname):
    """The phase for a code object, or None when no rule matches (the
    frame then inherits its caller's phase).  *filename* should already
    be normalized to forward slashes."""
    for suffix, name, phase in SITE_RULES:
        if name is not None and name != funcname:
            continue
        if suffix.endswith("/"):
            if ("/" + suffix) not in filename \
                    and not filename.startswith(suffix):
                continue
        elif not filename.endswith(suffix):
            continue
        return phase.replace("{name}", funcname)
    return None


def group_for_phase(phase):
    """The report group a phase belongs to."""
    for prefix, group in PHASE_GROUPS:
        if phase.startswith(prefix):
            return group
    return "other"
