"""The benchmark's tracer still loads and counts against the library,
and the benchmark's own output check passes on one round of each
workload.

``bench/tracing.py`` imports ``knotbands.diagram`` and wraps the public
functions of every layer; its ``bandform.compile_curves.crossings``
counter reads ``compile_curves(...).diagram.crossings``.
``bench/worker.py`` checks every item's output against the workload's
integer identities and, on seed 0, against the digests in
``bench/recorded.json``. Building a surface, which the ``surfaces``
workload does in its untimed prepare step, calls no function the tracer
wraps. A library change that breaks any of these shows
up here, in the tier-1 suite, and not only when the benchmark runs. The
tests only read ``bench/``.
"""

import contextlib
import functools
import importlib.util
import io
import pathlib
import sys

import pytest

from knotbands import bandform, cli, get_preset

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def _load_worker():
    # the worker puts src/, tests/ and bench/ in front of sys.path to
    # import its workloads; the suite's own path is put back afterwards
    saved = list(sys.path)
    try:
        return _load("bench_worker", BENCH / "worker.py")
    finally:
        sys.path[:] = saved


def test_tracer_counts_compiled_crossings():
    tracer = _load("bench_tracing", TRACING).Tracer()
    F = get_preset("trefoil").orientable_surface
    with tracer.active(), contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(["klein", "--presetK", "trefoil", "--presetJ", "t25", "-p", "3"])
        bandform.shape(F)
        bandform.framing(F)
        bandform.gl_form(F)
        bandform.seifert_matrix(F)
    assert code == 0 and '"verdict": "consistent"' in out.getvalue()
    assert tracer.counters["bandform.compile_curves.crossings"] > 0
    traced = {tracer.names[span[0]] for span in tracer.spans}
    assert {"cli.run", "bandform.compile_curves"} <= traced
    # the wrappers are gone again once the block ends
    assert bandform.compile_curves.__module__ == "knotbands.bandform"
    assert not hasattr(bandform.compile_curves, "__wrapped__")


@pytest.mark.parametrize("name, round_size", [("surfaces", 15), ("seifert", 9), ("cables", 27)])
def test_one_round_matches_recorded_outputs(name, round_size):
    worker = _load_worker()
    assert len(worker.WORKLOADS[name].classes) == round_size
    result = worker.run_workload(name, seed=0, seconds=0, trace=False, items=round_size)
    assert result["attempted"] == round_size
    assert result["failed"] == 0, result["problems"]


def test_building_a_surface_calls_no_traced_function():
    # the tracer wraps every public function of the layer modules, and the
    # workload builds its surfaces (BandSurface.from_json) in the untimed
    # prepare step, outside any item; a traced call there is counted
    # against no item
    worker = _load_worker()
    workload = worker.WORKLOADS["surfaces"]
    rounds = worker.Rounds(workload, 0)
    inputs = [rounds[i] for i in range(rounds.size)]
    tracer = _load("bench_tracing", TRACING).Tracer()
    with tracer.active():
        for inp in inputs:
            workload.prepare(inp)
    assert [tracer.names[span[0]] for span in tracer.spans] == []
