"""The benchmark's frozen view of the program (``perfbench/``).

``perfbench/tracing.py`` wraps layer functions by module attribute and
reads some of their arguments by name, and the stream workload calls
``assemble_bit_array`` positionally. A renamed function or argument
breaks only ``pytest perfbench``, which tier-1 does not run, so these
checks hold the same names here. ``perfbench/`` is imported read-only.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

from repro.baselines import driver
from repro.core import estimator, streaming
from repro.eval import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))


def test_tracer_installs_and_restores(tracing):
    """Every name the tracer wraps exists, and ``restore`` puts the
    originals back."""
    def current():
        return driver.sketch_snapshots, harness.estimate_vos, dict(harness._BASELINE_ESTIMATORS)

    before = current()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert driver.sketch_snapshots is not before[0]
    finally:
        tracer.restore()
    assert current() == before


@pytest.mark.parametrize(
    "fn", [driver.sketch_snapshots, harness.estimate_baseline], ids=lambda fn: fn.__name__
)
def test_span_argument_is_named_method(fn):
    """The tracer names these spans by the argument called ``method``."""
    assert "method" in inspect.signature(fn).parameters


def test_estimate_common_keeps_keyword_only_clamp():
    param = inspect.signature(estimator.estimate_common).parameters["clamp"]
    assert param.kind is inspect.Parameter.KEYWORD_ONLY


def test_assemble_bit_array_takes_four_positional_arguments():
    inspect.signature(streaming.assemble_bit_array).bind("spark", "name", "params", 64)
