"""Seeded-violation fixture: register mutation bypassing cpu.mrs/msr.

Never imported — the lint parses it and must flag every marked line.
"""


def clobber_guest_state(cpu):
    # VIOLATION sim-sysreg-bypass: hardware bank written without trap
    # accounting — at virtual EL2 this access must defer or trap.
    cpu.el1_regs.write("SCTLR_EL1", 0x30D00800)


def clobber_hyp_state(vcpu):
    # VIOLATION sim-sysreg-bypass: EL2 bank written directly.
    vcpu.cpu.el2_regs.write("HCR_EL2", 1 << 34)


def clobber_banks_in_bulk(cpu, ctx):
    # VIOLATION sim-sysreg-bypass: the unchecked bulk store.
    cpu.el2_regs.put_many(("HCR_EL2",), (0,))

    # VIOLATION sim-sysreg-bypass: a bank overwritten from a saved
    # context.
    cpu.el1_regs.copy_from(ctx.regs, ("SCTLR_EL1",))


def poke_raw_store(regfile):
    # VIOLATION sim-sysreg-bypass: reaching into RegisterFile internals
    # skips name validation and the read-only check.
    regfile._values["VTTBR_EL2"] = 0xDEAD

    # VIOLATION sim-sysreg-bypass: wholesale replacement.
    regfile._values = {}


def allowed_paths(cpu, regfile):
    # These are the sanctioned routes and must NOT be flagged.
    cpu.msr("SCTLR_EL1", 0)
    value = cpu.mrs("SCTLR_EL1")
    regfile.write("SCTLR_EL1", value)
    cpu.el2_regs.write("HCR_EL2", 0)  # lint: allow(sim-sysreg-bypass)
