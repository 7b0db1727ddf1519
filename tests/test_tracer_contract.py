"""The benchmark's tracer wraps lossyphase functions by name.

`perfbench/tracer.py` lists the entry points it wraps and, for the batch
kernels, the position and name of the argument that carries the batch
rows.  Renaming, deleting or reordering any of them breaks traced runs, and
a batch kernel a layer calls past them goes unseen, so these tests read the
tracer's tables (without changing the file) and check them against the
package.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
from test_dead_names import names_read_in

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("_tracer_under_test", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("name", TRACER.NAMES)
def test_entry_point_exists(name):
    mod, fn = name.rsplit(".", 1)
    module = importlib.import_module(f"lossyphase.{mod}")
    assert callable(getattr(module, fn, None)), name


@pytest.mark.parametrize("name", sorted(TRACER.ROW_ARG))
def test_row_argument_position(name):
    mod, fn = name.rsplit(".", 1)
    pos, arg = TRACER.ROW_ARG[name]
    params = list(inspect.signature(
        getattr(importlib.import_module(f"lossyphase.{mod}"), fn)).parameters)
    assert params[pos] == arg, (name, params)


# Batch kernels the tracer does not wrap yet, so their callers' spans hold
# their time (ROADMAP, item 3, which wraps them).
UNTRACED_KERNELS = {"expected_sharpness_batch", "predictive_batch"}


@pytest.mark.parametrize("module", ["sequences", "feedback", "posterior", "detection"])
def test_no_side_door_around_the_traced_kernels(module):
    # Every batch kernel a layer reads from _engine is one the tracer wraps,
    # or a known gap: an unwrapped one hides its rows and its time.
    from lossyphase import _engine

    tree = ast.parse(Path(importlib.import_module(f"lossyphase.{module}").__file__)
                     .read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "_engine"}
    kernels = {name for name in read if callable(fn := getattr(_engine, name))
               and list(inspect.signature(fn).parameters)[:1] == ["batch"]}
    hidden = kernels - set(TRACER.ENTRY_POINTS["_engine"]) - UNTRACED_KERNELS
    assert not hidden, (module, sorted(hidden))


# _engine names that only the benchmark reads: they stay while the tracer
# wraps them, and no program code may call them again (ROADMAP, item 4,
# which deletes them with their tracer entries).
TRACER_ONLY = {"advance_selected", "table_matrix", "first_harmonic"}


def test_tracer_only_names_are_pinned():
    from lossyphase import _engine

    engine = {name for name, value in vars(_engine).items()
              if getattr(value, "__module__", None) == _engine.__name__}
    read_by_benchmark = names_read_in(["perfbench"])
    assert (engine & read_by_benchmark) - names_read_in(["src"]) == TRACER_ONLY
