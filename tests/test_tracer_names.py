"""perfbench/tracer.py hooks program functions by name and reads some of
their positional arguments and result fields, so a rename in src/ would
quietly break `perfbench/run.py --trace 1`. These tests load the tracer
without running it and check that what it names is still there."""
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # Compiled from its source, so no bytecode file is written beside it;
    # running the module only defines names and patches nothing.
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec"), vars(module))
    return module


def test_every_traced_name_resolves(tracer):
    missing = []
    for module_name, attr in tracer.TRACED:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert not missing


# (module, function, position, name) of each positional argument an observer
# reads from `args`.
OBSERVED_ARGUMENTS = [
    ("tableroute.gate", "forward_batch", 1, "X"),
    ("tableroute.numerics", "adamw_step", 0, "params"),
]


@pytest.mark.parametrize("module_name,func,position,name", OBSERVED_ARGUMENTS)
def test_observed_positional_arguments_in_place(tracer, module_name, func, position, name):
    assert f"{module_name.split('.')[-1]}.{func}" in tracer.OBSERVERS
    fn = getattr(importlib.import_module(module_name), func)
    params = list(inspect.signature(fn).parameters.values())
    assert params[position].name == name
    assert params[position].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD


# (observer, the dataclass its hooked function returns, the field it reads
# from that result).
OBSERVED_RESULT_FIELDS = [
    ("ingest.ingest", "IngestResult", "skipped"),
    ("trainer.train", "TrainResult", "history"),
    ("fusion.fuse", "FusionResult", "degraded"),
    ("engine.infer", "InferenceRecord", "chosen_path"),
]


@pytest.mark.parametrize("span,cls_name,field", OBSERVED_RESULT_FIELDS)
def test_observed_result_fields_in_place(tracer, span, cls_name, field):
    assert field in tracer.OBSERVERS[span].__code__.co_names
    module_name, attr = next((m, a) for m, a in tracer.TRACED
                             if f"{m.split('.')[-1]}.{a}" == span)
    module = importlib.import_module(module_name)
    assert inspect.signature(getattr(module, attr)).return_annotation == cls_name
    assert field in {f.name for f in dataclasses.fields(getattr(module, cls_name))}


def test_every_observer_is_checked(tracer):
    checked = {f"{m.split('.')[-1]}.{f}" for m, f, _, _ in OBSERVED_ARGUMENTS}
    assert set(tracer.OBSERVERS) == checked | {span for span, _, _ in OBSERVED_RESULT_FIELDS}
