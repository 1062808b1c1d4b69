"""Guards for the interpreter's hot paths.

* The simulated cycles the interpreter charges are model output: each
  program below must reproduce the ``engine.total_cycles`` recorded for it,
  and together the programs must execute every opcode, so any change to
  when or how much a bytecode is charged fails here (the perfbench digests
  would catch it too, but they sit outside tier-1).
* The dispatch loop and the runtime helpers compare against enum members
  bound to module-level names; reading ``Op.X`` off the enum class costs
  several times as much, on every test.  An AST scan keeps it that way.
"""

import ast
import inspect
import textwrap

import pytest

import repro.engine as engine_module
from repro.bytecode.compiler import compile_source
from repro.bytecode.opcodes import Op
from repro.engine import Engine, EngineConfig
from repro.interpreter import runtime
from repro.interpreter.feedback import ICState, OperandFeedback
from repro.interpreter.interpreter import Interpreter
from repro.machine.ladder import Tier
from repro.suite import get_benchmark
from repro.values.heap import Heap
from repro.values.maps import ElementsKind, InstanceType

#: The seven opcodes the suite programs below do not reach.
INLINE_SOURCE = """
function setup() {}
function run() {
  var o = {n: 3, s: "4"};
  var x = +o.s;
  var f = !(x > 5);
  var m = ~o.n;
  var t = typeof o;
  if (t === "object" && m !== x) { return x + m; }
  return f;
}
"""

#: engine.total_cycles after setup() and 2 run()s at tier ``interp``.
PINNED_CYCLES = {
    "RICH": 1_015_597,
    "CRC32": 551_393,
    "STR-SPLIT": 37_494,
    "BITS": 280_515,
    "SPECTRAL": 1_211_536,
    "inline": 624,
}


class _RecordingCode(list):
    """A bytecode list that notes the opcode of every instruction fetched."""

    def __init__(self, code, seen):
        super().__init__(code)
        self.seen = seen

    def __getitem__(self, index):
        instr = list.__getitem__(self, index)
        self.seen.add(instr.op)
        return instr


def _run_interpreted(source, seen, iterations=2):
    def compile_recording(text):
        program = compile_source(text)
        for info in program.functions:
            info.bytecode = _RecordingCode(info.bytecode, seen)
        return program

    with pytest.MonkeyPatch.context() as patch:
        # Wrapped before load(), so the top-level code is recorded too.
        patch.setattr(engine_module, "compile_source", compile_recording)
        engine = Engine(EngineConfig(tier=Tier.INTERP))
        engine.load(source)
    engine.call_global("setup")
    for iteration in range(iterations):
        engine.current_iteration = iteration
        engine.call_global("run")
    return engine.total_cycles


@pytest.fixture(scope="module")
def pinned_runs():
    runs = {}
    for name in PINNED_CYCLES:
        source = INLINE_SOURCE if name == "inline" else get_benchmark(name).source
        seen = set()
        runs[name] = (_run_interpreted(source, seen), seen)
    return runs


@pytest.mark.parametrize("name", list(PINNED_CYCLES))
def test_interpreter_cycles_are_pinned(pinned_runs, name):
    cycles, _seen = pinned_runs[name]
    assert cycles == PINNED_CYCLES[name]


def test_pinned_programs_execute_every_opcode(pinned_runs):
    executed = set().union(*(seen for _cycles, seen in pinned_runs.values()))
    assert sorted(op.name for op in set(Op) - executed) == []


_ENUMS = {
    "Op": Op,
    "InstanceType": InstanceType,
    "ElementsKind": ElementsKind,
    "OperandFeedback": OperandFeedback,
    "ICState": ICState,
}


def _hot_functions():
    for fn in (Interpreter.run_from, OperandFeedback.union, Heap.map_of):
        yield fn.__qualname__, ast.parse(textwrap.dedent(inspect.getsource(fn)))
    tree = ast.parse(inspect.getsource(runtime))
    defs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert len(defs) > 20  # the scan sees the whole module
    for node in defs:
        yield f"runtime.{node.name}", node


def test_hot_paths_read_no_enum_members_off_their_class():
    reads = []
    for name, tree in _hot_functions():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in _ENUMS
                and node.attr in _ENUMS[node.value.id].__members__
            ):
                reads.append(f"{name}: {node.value.id}.{node.attr}")
    assert reads == []
