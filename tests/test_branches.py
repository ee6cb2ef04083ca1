"""The jump table of tools/branches.py on one synthetic function."""

import dis
import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "branches.py"
_spec = importlib.util.spec_from_file_location("branches", TOOL)
branches = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(branches)

# ``flag`` guards a body of 60 statements, so its jump needs an EXTENDED_ARG prefix.
SAMPLE = """\
import contextlib


def sample(flag, path, stack):
    if flag:
""" + "        flag += 1\n" * 60 + """\
    try:
        int(path)
    except ValueError:
        if path:
            stack.append(path)
    with contextlib.nullcontext():
        stack.append(flag)
    while stack:
        stack.pop()
    return flag
"""


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the table describes CPython 3.11 bytecode")
def test_the_jump_table_names_the_branches_of_the_source():
    jumps, table = branches.jump_table([("sample.py", "sample.py", SAMPLE)])
    names = [jump.name for jump in jumps]
    # no except match and no with exit: the compiler's jumps in handler code are left out
    assert names == ["sample.py sample if `flag`", "sample.py sample if `path`",
                     "sample.py sample while `stack`", "sample.py sample while-repeat `stack`"]
    (code, offsets), = table.items()
    assert [jump.outcomes for jump in jumps] == [("true", "false")] * 3 + [("false", "true")]  # (fall-through, target)
    instructions = {ins.offset: ins for ins in dis.get_instructions(code)}
    first = min(offsets)  # if flag, keyed by its prefix: the opcode event fires there
    assert instructions[first].opname == "EXTENDED_ARG"
    assert instructions[first + 2].opname.startswith("POP_JUMP")

    namespace = {}
    exec(compile(SAMPLE, "sample.py", "exec"), namespace)  # its sample is equal to the code of the table
    tracer, previous = branches.Tracer(table), sys.gettrace()
    sys.settrace(tracer)
    try:
        for flag, path in ((0, "x"), (1, "")):
            namespace["sample"](flag, path, [])
    finally:
        sys.settrace(previous)
    # every outcome is taken but one: the with body fills the stack before the while tests it
    line = SAMPLE.splitlines().index("    while stack:") + 1
    assert branches.one_way(jumps, tracer.taken) == {"sample.py sample while `stack` never false": line}
