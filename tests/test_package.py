"""Package-wide rules: the public names, the error texts, the lazy imports and
the names the benchmark's tracer patches."""

import ast
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import gmlife
import gmlife.cli
from gmlife import life, mortality, oracle, special

from test_cli import REMARK_FLAGS, src_env

SOURCES = sorted(Path(gmlife.__file__).parent.glob("*.py"))


def test_every_exception_text_is_written_once():
    # the first argument of every *Error(...) call that is a string or f-string
    places = defaultdict(list)
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            text = node.args[0]
            if name.endswith("Error") and (isinstance(text, ast.JoinedStr) or (
                    isinstance(text, ast.Constant) and isinstance(text.value, str))):
                places[ast.unparse(text)].append(f"{path.name}:{node.lineno}")
    assert len(places) > 20  # the walk finds the texts
    assert {text: at for text, at in places.items() if len(at) > 1} == {}


def test_public_names_are_the_module_lists():
    modules = (mortality, life, oracle, special)
    names = [name for module in modules for name in module.__all__] + ["__version__"]
    assert sorted(gmlife.__all__) == sorted(names)
    assert len(set(gmlife.__all__)) == len(gmlife.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(gmlife, name) is getattr(module, name), name
    assert isinstance(gmlife.__version__, str)


# runs gmlife.cli.main on its argv, with stdout thrown away, and prints whether the
# emit pool (concurrent.futures) and the CSV formatter's tables were loaded
IMPORT_PROBE = """
import json, os, sys
from gmlife.cli import _cpu_count, main
sys.stdout = open(os.devnull, "w")
code = main(sys.argv[1:])
print(json.dumps([code, _cpu_count(), "concurrent.futures" in sys.modules,
                  "gmlife.formatting" in sys.modules]), file=sys.stderr)
"""


def imports_of(argv):
    run = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True,
                         text=True, env=src_env(), timeout=120)
    code, cpus, futures, formatting = json.loads(run.stderr)
    assert code == 0, argv
    return cpus, futures, formatting


def test_the_pool_and_the_formatter_load_only_when_used():
    # one CSV block is formatted serially
    one_row = REMARK_FLAGS + ["--x-min", "40", "--x-max", "40", "--step", "1"]
    assert imports_of(one_row)[1:] == (False, True)
    # JSON never formats CSV: the verify benchmark workload's argv
    verify = REMARK_FLAGS + ["--x-min", "0.13", "--x-max", "110", "--step", "1",
                             "--verify", "--format", "json", "--seed", "1"]
    assert imports_of(verify)[1:] == (False, False)
    # 11 blocks go to the pool wherever there is more than one CPU
    table = REMARK_FLAGS + ["--x-min", "0", "--x-max", "110", "--step", "0.01",
                            "--double-rate", "--diagnostics"]
    cpus, futures, formatting = imports_of(table)
    assert (futures, formatting) == (cpus > 1, True)


def test_the_benchmark_tracer_finds_every_name_it_patches(monkeypatch):
    # perfbench/run.py --trace wraps gmlife's cross-module names and reads a time for
    # each layer: a cleanup that drops one of those names, or stops calling it, ends
    # that run in a KeyError while every other test passes
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing
    tracer = tracing.Tracer()
    tracing.run_probes(tracer)
    tracing.layer_metrics(tracer, 1.0, tracer, 1.0, 1, 0.0)
    for name in ("special.product", "mortality.survival", "mortality.mortality_rate"):
        assert tracer.stats[name][0] > 0, name
    assert gmlife.cli.survival is mortality.survival  # the patches are undone
