"""Pass 2: AST lint enforcing the simulator's structural invariants.

The discrete-event core only produces meaningful cycle and trap numbers
if three invariants hold everywhere in ``src/repro``:

``sim-sysreg-bypass``
    Simulated system-register state is only mutated through
    ``cpu.mrs``/``cpu.msr`` (or the CPU's own access-resolution
    machinery), so every access pays its cost and can trap.  Writing
    ``cpu.el1_regs``/``cpu.el2_regs`` directly, or reaching into a
    ``RegisterFile``'s ``_values``, bypasses trap accounting.  Device
    models updating their own hardware state (the GIC computing status
    registers) and host-EL2 context-switch code annotate the exempt
    sites with ``# lint: allow(sim-sysreg-bypass)``.

``sim-nondeterminism``
    The simulator must be bit-for-bit reproducible: same configuration,
    same numbers.  Wall-clock reads (``time.time()`` and friends),
    module-level ``random.*`` calls (the unseeded global generator —
    seeded ``random.Random(seed)`` instances are fine) and iteration
    over set displays/constructors (hash-order dependent) are flagged.

``sim-ledger-bypass``
    Cycle accounting flows through :meth:`CycleLedger.charge` only.
    Assigning or augmenting ``<...>.ledger.total`` or
    ``<...>.ledger.by_category[...]`` invents or destroys cycles
    without a category trail.

The lint is purely syntactic (no imports are executed), so it can run
over fixture files with deliberately broken code.
"""

import ast
from pathlib import Path

from repro.analysis.base import Finding, apply_pragmas, pragma_allowances

#: Files whose whole purpose is to implement the guarded machinery.
EXEMPT_SUFFIXES = (
    "repro/arch/registers.py",  # RegisterFile owns its _values store
    "repro/riscv/csrs.py",  # CsrFile is the RISC-V RegisterFile analogue
)

_TIME_FUNCS = {"time", "time_ns", "monotonic", "monotonic_ns",
               "perf_counter", "perf_counter_ns", "process_time",
               "process_time_ns", "clock"}
_DATETIME_FUNCS = {"now", "utcnow", "today"}
_DICT_MUTATORS = {"clear", "pop", "popitem", "update", "setdefault"}
#: random-module attributes that do NOT touch the global generator.
_RANDOM_SAFE = {"Random", "SystemRandom"}
_REGFILE_ATTRS = {"el1_regs", "el2_regs"}
#: RegisterFile methods that change a bank's values.
_REGFILE_MUTATORS = {"write", "put_many", "copy_from"}


def _attr_chain(node):
    """The dotted parts of an attribute/name chain, outermost first;
    e.g. ``self.cpu.ledger.total`` -> ("self", "cpu", "ledger", "total").
    Unresolvable bases (calls, subscripts) contribute nothing."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


class _InvariantVisitor(ast.NodeVisitor):
    def __init__(self, path):
        self.path = path
        self.findings = []
        # Names imported from time/random that alias nondeterminism.
        self._tainted_names = {}
        # Local names currently bound to a set display/constructor, so
        # ``s = {a, b} ... for x in s`` is flagged like the inline form.
        self._set_vars = {}

    def _flag(self, rule, node, message):
        self.findings.append(Finding(rule, message, path=str(self.path),
                                     line=node.lineno))

    # -- imports ---------------------------------------------------------

    def visit_ImportFrom(self, node):
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FUNCS:
                    self._tainted_names[alias.asname or alias.name] = \
                        "time.%s" % alias.name
        elif node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_SAFE:
                    self._tainted_names[alias.asname or alias.name] = \
                        "random.%s" % alias.name
        self.generic_visit(node)

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node):
        func = node.func
        chain = _attr_chain(func)
        if len(chain) >= 2 and chain[-1] in _REGFILE_MUTATORS \
                and chain[-2] in _REGFILE_ATTRS:
            self._flag("sim-sysreg-bypass", node,
                       "direct %s.%s() bypasses cpu.msr trap "
                       "accounting" % chain[-2:])
        elif len(chain) == 2 and chain[0] == "time" \
                and chain[1] in _TIME_FUNCS:
            self._flag("sim-nondeterminism", node,
                       "time.%s() makes simulation results depend on "
                       "wall-clock time" % chain[1])
        elif len(chain) == 2 and chain[0] == "random" \
                and chain[1] not in _RANDOM_SAFE:
            self._flag("sim-nondeterminism", node,
                       "random.%s() uses the unseeded global generator; "
                       "use a seeded random.Random instance" % chain[1])
        elif len(chain) == 2 and chain[0] in ("datetime", "date") \
                and chain[1] in _DATETIME_FUNCS:
            self._flag("sim-nondeterminism", node,
                       "%s.%s() reads the wall clock"
                       % (chain[0], chain[1]))
        elif chain == ("os", "urandom") or chain == ("uuid", "uuid4"):
            self._flag("sim-nondeterminism", node,
                       "%s() is a nondeterminism source"
                       % ".".join(chain))
        elif len(chain) == 1 and chain[0] in self._tainted_names:
            self._flag("sim-nondeterminism", node,
                       "%s() (imported as %s) is a nondeterminism source"
                       % (self._tainted_names[chain[0]], chain[0]))
        elif len(chain) >= 3 and chain[-1] in _DICT_MUTATORS \
                and chain[-2] == "by_category" and "ledger" in chain[:-2]:
            self._flag("sim-ledger-bypass", node,
                       "mutating ledger.by_category directly skips "
                       "CycleLedger.charge()")
        self.generic_visit(node)

    # -- assignments -----------------------------------------------------

    def _check_store_target(self, target, node):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store_target(element, node)
            return
        if isinstance(target, ast.Subscript):
            chain = _attr_chain(target.value)
            if chain[-1:] == ("_values",):
                self._flag("sim-sysreg-bypass", node,
                           "writing RegisterFile._values directly "
                           "bypasses register validation and trap "
                           "accounting")
            if chain[-1:] == ("by_category",) and "ledger" in chain:
                self._flag("sim-ledger-bypass", node,
                           "assigning ledger.by_category[...] skips "
                           "CycleLedger.charge()")
            return
        if isinstance(target, ast.Attribute):
            chain = _attr_chain(target)
            if chain[-1] == "_values":
                self._flag("sim-sysreg-bypass", node,
                           "replacing RegisterFile._values wholesale "
                           "bypasses register validation")
            if chain[-1] in ("total", "by_category") \
                    and "ledger" in chain[:-1]:
                self._flag("sim-ledger-bypass", node,
                           "assigning ledger.%s directly skips "
                           "CycleLedger.charge()" % chain[-1])

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_store_target(target, node)
        self._track_set_binding(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_store_target(node.target, node)
        if isinstance(node.target, ast.Name):
            self._set_vars.pop(node.target.id, None)
        self.generic_visit(node)

    # -- set-variable tracking -------------------------------------------

    def _track_set_binding(self, node):
        """Track simple local bindings to set values: ``s = {…}`` makes
        ``s`` a known set until something else is assigned to it (a
        later ``for x in s`` is just as hash-order dependent as the
        inline form).  Aliases of known sets propagate; any other value
        clears the name."""
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if self._is_set_value(value):
                self._set_vars[target.id] = node.lineno
            elif isinstance(value, ast.Name) and value.id in self._set_vars:
                self._set_vars[target.id] = self._set_vars[value.id]
            else:
                self._set_vars.pop(target.id, None)

    def _scoped_names(self, node):
        """Names a function's own scope (re)binds: its parameters."""
        args = node.args
        names = [a.arg for a in args.posonlyargs + args.args
                 + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def _visit_function(self, node):
        saved = self._set_vars
        self._set_vars = {name: line for name, line in saved.items()
                          if name not in self._scoped_names(node)}
        self.generic_visit(node)
        self._set_vars = saved

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- loops -----------------------------------------------------------

    def _is_set_value(self, expr):
        """Is *expr* syntactically a set (display, comprehension, or
        ``set()``/``frozenset()`` constructor)?"""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            chain = _attr_chain(expr.func)
            return chain in (("set",), ("frozenset",))
        return False

    def _iter_is_set(self, expr):
        if self._is_set_value(expr):
            return True
        return (isinstance(expr, ast.Name)
                and expr.id in self._set_vars)

    def visit_For(self, node):
        if self._iter_is_set(node.iter):
            self._flag("sim-nondeterminism", node,
                       "iterating a set makes ordering (and thus traces "
                       "and float accumulation) hash-order dependent; "
                       "sort it or use a list/dict")
        if isinstance(node.target, ast.Name):
            # The loop variable shadows any tracked set binding.
            self._set_vars.pop(node.target.id, None)
        self.generic_visit(node)


def lint_source(source, path="<string>"):
    """Lint one module's source text; returns a list of findings."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding("sim-syntax-error", str(exc), path=str(path),
                        line=exc.lineno or 1)]
    visitor = _InvariantVisitor(path)
    visitor.visit(tree)
    return apply_pragmas(visitor.findings, pragma_allowances(source))


def lint_file(path):
    path = Path(path)
    if path.as_posix().endswith(EXEMPT_SUFFIXES):
        return []
    return lint_source(path.read_text(encoding="utf-8"), path)


def iter_python_files(paths):
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                yield sub
        else:
            yield path


def lint_paths(paths):
    """Lint every ``*.py`` file under *paths* (files or directories)."""
    findings = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return findings
