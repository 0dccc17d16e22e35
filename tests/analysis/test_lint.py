"""AST-lint tests: inline snippets per rule, the seeded-violation
fixtures, and the clean-tree guarantee."""

from pathlib import Path

import repro
from repro.analysis.lint import lint_file, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(repro.__file__).parent


def rules_of(findings):
    return [finding.rule for finding in findings]


# -- sim-sysreg-bypass ----------------------------------------------------

def test_el1_bank_write_is_flagged():
    findings = lint_source("cpu.el1_regs.write('SCTLR_EL1', 1)\n")
    assert rules_of(findings) == ["sim-sysreg-bypass"]


def test_nested_attribute_chain_is_flagged():
    findings = lint_source("self.vcpu.cpu.el2_regs.write('HCR_EL2', 0)\n")
    assert rules_of(findings) == ["sim-sysreg-bypass"]


def test_values_subscript_store_is_flagged():
    findings = lint_source("regs._values['HCR_EL2'] = 1\n")
    assert rules_of(findings) == ["sim-sysreg-bypass"]


def test_register_reads_are_not_flagged():
    assert lint_source("x = cpu.el2_regs.read('HCR_EL2')\n") == []


def test_msr_is_not_flagged():
    assert lint_source("cpu.msr('SCTLR_EL1', 1)\n") == []


def test_plain_regfile_write_is_not_flagged():
    # A bare RegisterFile (shadow state the hypervisor emulates against)
    # is software bookkeeping, not the hardware banks.
    assert lint_source("vregs.write('SCTLR_EL1', 1)\n") == []


# -- sim-nondeterminism ---------------------------------------------------

def test_time_call_is_flagged():
    findings = lint_source("import time\nstamp = time.time()\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_global_random_is_flagged():
    findings = lint_source("import random\nn = random.randint(0, 5)\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_from_import_alias_is_flagged():
    findings = lint_source("from random import choice\nx = choice(y)\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_seeded_random_instance_is_allowed():
    assert lint_source("import random\nrng = random.Random(7)\n") == []


def test_set_iteration_is_flagged():
    findings = lint_source("for cpu in set(cpus):\n    cpu.kick()\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_set_literal_iteration_is_flagged():
    findings = lint_source("for x in {1, 2}:\n    pass\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_sorted_set_iteration_is_allowed():
    assert lint_source("for x in sorted(set(xs)):\n    pass\n") == []


def test_set_variable_iteration_is_flagged():
    findings = lint_source("s = {1, 2}\nfor x in s:\n    pass\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_set_constructor_variable_is_flagged():
    findings = lint_source("s = set(xs)\nfor x in s:\n    pass\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_set_comprehension_variable_is_flagged():
    findings = lint_source("s = {x for x in xs}\nfor y in s:\n    pass\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_alias_of_set_variable_is_flagged():
    findings = lint_source("s = frozenset(xs)\nt = s\n"
                           "for x in t:\n    pass\n")
    assert rules_of(findings) == ["sim-nondeterminism"]


def test_rebinding_to_sorted_clears_tracking():
    assert lint_source("s = {1, 2}\ns = sorted(s)\n"
                       "for x in s:\n    pass\n") == []


def test_augassign_clears_tracking():
    # After augmented assignment the lint no longer knows the shape;
    # staying quiet beats a false positive.
    assert lint_source("s = {1}\ns |= other\n"
                       "for x in s:\n    pass\n") == []


def test_function_parameter_shadows_tracked_set():
    source = ("s = {1, 2}\n"
              "def f(s):\n"
              "    for x in s:\n"
              "        pass\n")
    assert lint_source(source) == []


def test_tracked_set_is_visible_inside_function():
    source = ("s = {1, 2}\n"
              "def f():\n"
              "    for x in s:\n"
              "        pass\n")
    assert rules_of(lint_source(source)) == ["sim-nondeterminism"]


def test_loop_target_shadows_tracked_set():
    source = ("s = {1, 2}\n"
              "for s in rows:\n"
              "    pass\n"
              "for x in s:\n"
              "    pass\n")
    # The first loop rebinds ``s`` to row elements; the second loop
    # iterates whatever a row was, not a set.
    assert lint_source(source) == []


# -- sim-ledger-bypass ----------------------------------------------------

def test_total_augassign_is_flagged():
    findings = lint_source("cpu.ledger.total += 100\n")
    assert rules_of(findings) == ["sim-ledger-bypass"]


def test_by_category_store_is_flagged():
    findings = lint_source("self.ledger.by_category['trap'] = 0\n")
    assert rules_of(findings) == ["sim-ledger-bypass"]


def test_by_category_clear_is_flagged():
    findings = lint_source("cpu.ledger.by_category.clear()\n")
    assert rules_of(findings) == ["sim-ledger-bypass"]


def test_charge_is_not_flagged():
    assert lint_source("cpu.ledger.charge(100, 'trap')\n") == []


def test_unrelated_total_is_not_flagged():
    # Only ledger cycle counters are protected; other counters named
    # "total" (trap counters, attribution tallies) are fair game.
    assert lint_source("self.attribution.total += 1\n") == []


# -- pragmas and plumbing -------------------------------------------------

def test_pragma_suppresses_named_rule():
    source = ("cpu.el2_regs.write('ICH_MISR_EL2', 0)"
              "  # lint: allow(sim-sysreg-bypass)\n")
    assert lint_source(source) == []


def test_pragma_does_not_suppress_other_rules():
    source = "cpu.ledger.total += 1  # lint: allow(sim-sysreg-bypass)\n"
    assert rules_of(lint_source(source)) == ["sim-ledger-bypass"]


def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n")
    assert rules_of(findings) == ["sim-syntax-error"]


def test_findings_carry_location():
    findings = lint_source("x = 1\ncpu.ledger.total = 0\n", path="mod.py")
    assert findings[0].path == "mod.py"
    assert findings[0].line == 2
    assert "mod.py:2" in findings[0].format()


# -- fixtures -------------------------------------------------------------

def test_bad_sysreg_fixture_is_caught():
    findings = lint_file(FIXTURES / "bad_sysreg_bypass.py")
    assert rules_of(findings) == ["sim-sysreg-bypass"] * 6


def test_bad_nondeterminism_fixture_is_caught():
    findings = lint_file(FIXTURES / "bad_nondeterminism.py")
    assert rules_of(findings) == ["sim-nondeterminism"] * 4


def test_bad_ledger_fixture_is_caught():
    findings = lint_file(FIXTURES / "bad_ledger.py")
    assert rules_of(findings) == ["sim-ledger-bypass"] * 3


def test_clean_fixture_reports_nothing():
    assert lint_file(FIXTURES / "clean_module.py") == []


# -- the tree itself ------------------------------------------------------

def test_simulator_tree_is_clean():
    """The whole src/repro package must lint clean — this is the
    tripwire future PRs run into."""
    assert lint_paths([SRC]) == []
