"""Branch outcomes of src/warpgeo under the tier-1 suite.

Usage (from the repository root, on CPython 3.11, whose bytecode the
allowlist describes; the script takes no arguments):

    python tools/branches.py

The script runs the tier-1 suite (``tests/``) in this process under
``sys.settrace``, with opcode events on in every frame of ``src/warpgeo``.
For every conditional jump of that code (``POP_JUMP_*_IF_*``,
``JUMP_IF_*_OR_POP``, ``FOR_ITER``) on an ``if``, ``while``, ``for``,
conditional expression, ``and``/``or`` or comprehension, it records whether
the fall-through and the target were each reached.  The jumps the compiler
makes for an ``except`` clause's type match and a ``with`` statement's exit
belong to no condition of the source and are left out; a conditional inside
an ``except`` body is a branch like any other.

A jump is named by its module, its function, its construct and the source
text of the condition it tests, never by its line, so that edits elsewhere
do not move it.  Its two outcomes are named by what the jump tests: ``true``
or ``false``; ``None`` or ``not-None`` (for ``is None`` tests); ``item`` or
``end`` (a loop's next item, or its end).  The entry test of a ``while`` is
construct ``while``, its test at the end of the body ``while-repeat``.  Jumps
of one function that share construct and text are told apart by `` #2``,
`` #3``, ... in the order of the bytecode.  A jump that the script cannot
place in the source shows ``?`` for its construct or its condition.

Every outcome that tier-1 never takes must be listed in
``tools/branches.txt``, one line each as the table prints it, below one or
more ``#`` lines that give its reason.  The script prints the one-way
outcomes and exits 1 on one that is not listed, on a listed one that is now
taken or names no jump, and when the suite fails.

The Hypothesis draws of the suite run with a fixed seed and no example
database, so that two runs print the same table.  Child processes are not
traced.  An opcode event fires at an instruction's first ``EXTENDED_ARG``
prefix, so every instruction is keyed by the offset of that prefix.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import os
import re
import sys
import threading
from collections import Counter, namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "warpgeo"
ALLOWLIST = ROOT / "tools" / "branches.txt"
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--hypothesis-seed=0", "tests"]

# What a jump tests -> (the outcome at its fall-through, the outcome at its target).
OUTCOMES = {"FALSE": ("true", "false"), "TRUE": ("false", "true"), "NONE": ("not-None", "None"),
            "NOT_NONE": ("None", "not-None"), "FOR_ITER": ("item", "end")}
CONDITIONAL = re.compile(r"(?:POP_JUMP_(?:FORWARD_|BACKWARD_)?IF|JUMP_IF)_(TRUE|FALSE|NONE|NOT_NONE)(?:_OR_POP)?$"
                         r"|(FOR_ITER)$")
HANDLER_OPS = {"CHECK_EXC_MATCH", "CHECK_EG_MATCH", "WITH_EXCEPT_START"}  # the compiler's jumps follow these
TESTS = {ast.If: "if", ast.While: "while", ast.IfExp: "ifexp", ast.Assert: "assert"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# One conditional jump: its name, the line of its condition, and its outcomes at the fall-through and target.
Jump = namedtuple("Jump", "name line outcomes")


def _span(node):
    """(line, column, end line, end column) of an AST node or of an instruction's ``positions``."""
    return node.lineno, node.col_offset, node.end_lineno, node.end_col_offset


def _conditions(tree):
    """(span, construct, node) of each expression that a conditional jump tests, and each loop's
    (construct, generators) by the span of its ``for`` statement or comprehension.

    A condition is split as the compiler splits it: through ``not`` and
    through ``and``/``or``, down to the operands; an ``and``/``or`` whose
    value is used tests every operand but its last.
    """
    found, split = [], set()

    def leaves(node, construct):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            leaves(node.operand, construct)
        elif isinstance(node, ast.BoolOp):
            split.add(node)
            for value in node.values:
                leaves(value, construct)
        else:
            found.append((_span(node), construct, node))

    loops = {}
    for node in ast.walk(tree):
        if type(node) in TESTS:
            leaves(node.test, TESTS[type(node)])
        elif isinstance(node, ast.comprehension):
            for test in node.ifs:
                leaves(test, "comp-if")
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            loops[_span(node)] = "for", [node]
        elif isinstance(node, COMPREHENSIONS):
            loops[_span(node)] = "comp-for", node.generators
    for node in ast.walk(tree):
        if isinstance(node, ast.BoolOp) and node not in split:
            found += [(_span(value), type(node.op).__name__.lower(), value) for value in node.values[:-1]]
    return found, loops


def _codes(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _codes(const)


def jump_table(modules):
    """The conditional jumps on source conditions of ``modules``, (name, file name, source) triples:
    a list of :class:`Jump`, and {code object: {offset: (fall-through offset, target offset, index into
    the list)}}."""
    jumps, table = [], {}
    for module, filename, source in modules:
        _module_jumps(module, filename, source, jumps, table)
    return jumps, table


def _module_jumps(module, filename, source, jumps, table):
    conditions, loops = _conditions(ast.parse(source, filename))

    def text(node):
        return " ".join(ast.get_source_segment(source, node).split())

    names = Counter()
    for code in _codes(compile(source, filename, "exec", dont_inherit=True)):
        instructions = list(dis.get_instructions(code))
        start, prefix = {}, None  # an instruction's offset -> the offset of its first EXTENDED_ARG
        for ins in instructions:
            start[ins.offset] = ins.offset if prefix is None else prefix
            prefix = start[ins.offset] if ins.opname == "EXTENDED_ARG" else None
        offsets, loop_heads = {}, Counter()
        for k, ins in enumerate(instructions):
            match = CONDITIONAL.match(ins.opname)
            if not match:
                continue
            before = next(i for i in reversed(instructions[:k]) if i.opname != "EXTENDED_ARG")
            if before.opname in HANDLER_OPS:
                continue
            if match[2]:  # a loop's head, at the span of its for statement or comprehension
                here = _span(ins.positions)
                construct, generators = loops.get(here, ("?", []))
                loop_heads[here] += 1
                node = generators[loop_heads[here] - 1] if loop_heads[here] <= len(generators) else None
                condition = f"for {text(node.target)} in {text(node.iter)}" if node else "?"
                line = here[0]
            else:  # the innermost condition holding the instruction that computed the tested value
                here = _span(before.positions)
                held = [(span, construct, node) for span, construct, node in conditions
                        if None not in here and span[:2] <= here[:2] and here[2:] <= span[2:]]
                span, construct, node = min(held, key=lambda c: (c[0][2] - c[0][0], c[0][3] - c[0][1]),
                                            default=(here, "?", None))
                condition = text(node) if node else "?"
                line = span[0]
                if construct == "while" and "BACKWARD" in ins.opname:
                    construct = "while-repeat"
            name = f"{module} {code.co_qualname} {construct} `{condition}`"
            names[name] += 1
            name += f" #{names[name]}" if names[name] > 1 else ""
            fall, target = start[instructions[k + 1].offset], start.get(ins.argval, ins.argval)
            offsets[start[ins.offset]] = fall, target, len(jumps)
            jumps.append(Jump(name, line, OUTCOMES[match[1] or match[2]]))
        if offsets:
            table[code] = offsets


class Tracer:
    """A ``sys.settrace`` function that records, into ``taken``, each (jump index, side) reached by a
    jump of ``table`` (see :func:`jump_table`); side 0 is the fall-through, 1 the target."""

    def __init__(self, table):
        self.table, self.taken, self._codes = table, set(), {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        held = self._codes.get(id(code))
        if held is None:  # the code is held too, so that its id is not reused
            held = self._codes[id(code)] = code, self.table.get(code)
        offsets = held[1]
        if offsets is None:
            return None
        frame.f_trace_opcodes = True
        taken, pending = self.taken, None

        def local(frame, event, arg):
            nonlocal pending
            if event == "opcode":
                offset = frame.f_lasti
                if pending is not None:
                    if offset == pending[0]:
                        taken.add((pending[2], 0))
                    elif offset == pending[1]:
                        taken.add((pending[2], 1))
                pending = offsets.get(offset)
            return local

        return local


def one_way(jumps, taken):
    """{name of an outcome never taken: the line of its condition}, as the table and the allowlist name it."""
    return {f"{jump.name} never {jump.outcomes[side]}": jump.line
            for index, jump in enumerate(jumps) for side in (0, 1) if (index, side) not in taken}


def read_allowlist(path):
    """The outcomes listed in ``path``; a line with no ``#`` reason above it ends the script."""
    listed, reason = [], False
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if line.startswith("#"):
            reason = True
        elif line.strip():
            if not reason:
                sys.exit(f"{path.name}:{number}: no '#' reason above {line!r}")
            listed.append(line)
        else:
            reason = False
    return listed


def main(argv):
    if argv:
        sys.exit("usage: python tools/branches.py (it takes no arguments)")
    if sys.version_info[:2] != (3, 11):
        sys.exit("tools/branches.py: the allowlist describes CPython 3.11 bytecode")
    listed = read_allowlist(ALLOWLIST)
    jumps, table = jump_table((path.name, str(path), path.read_text()) for path in sorted(PACKAGE.glob("*.py")))

    import pytest
    from hypothesis import settings

    settings.register_profile("branches", database=None)
    settings.load_profile("branches")
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))  # warpgeo is first imported by the suite, under the tracer
    tracer, output = Tracer(table), io.StringIO()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(output):
            status = pytest.main(PYTEST_ARGS)
        replaced = sys.gettrace() is not tracer
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status or replaced:
        print(output.getvalue())
        sys.exit("the suite failed under the tracer" if status else "the suite replaced the tracer")

    missed, lines = one_way(jumps, tracer.taken), one_way(jumps, set())  # lines: of every outcome
    rows = [("allowed" if name in listed else "UNLISTED", line, name) for name, line in missed.items()]
    rows += [("TAKEN" if name in lines else "NO JUMP", lines.get(name, 0), name)
             for name in listed if name not in missed]
    print(f"tier-1 passed under the tracer: {len(jumps)} conditional jumps on source conditions in src/warpgeo,")
    print(f"{len(missed)} outcomes never taken, {len(listed)} listed in {ALLOWLIST.name}")
    for status, line, name in sorted(rows, key=lambda row: (row[2].split()[0], row[1], row[2])):
        print(f"{status:<9}{line:>4}  {name}")
    return 1 if any(status != "allowed" for status, *_ in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
