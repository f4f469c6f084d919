"""Run one tableroute CLI command in this process with its layers traced.

    python3 perfbench/tracer.py --out spans.json --run-id evaluate/bench -- bench --corpus ...

The tracer imports `tableroute.cli`, then replaces each traced function at
every `tableroute` module attribute (or class attribute) that holds it, so the
callers pick up the wrapper through their normal name lookup. No file of the
program changes. Each wrapper records a span (id, parent id, name, start, end)
and may add to a counter; spans stay in memory and are written to `--out` as
one JSON document when the command returns. The exit code is the command's.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from typing import Any, Callable

# (module, attribute) of each traced function; "Class.method" patches a class.
TRACED = (
    ("tableroute.synthetic", "make_raw_records"),
    ("tableroute.corpus", "load_corpus"),
    ("tableroute.corpus", "write_corpus"),
    ("tableroute.ingest", "ingest"),
    ("tableroute.runconfig", "backends_from_corpus"),
    ("tableroute.experts", "SimulatedEmbeddingBackend.embed"),
    ("tableroute.experts", "SimulatedGenerationBackend.generate"),
    ("tableroute.fusion", "fuse"),
    ("tableroute.fusion", "ScriptedAgent.complete"),
    ("tableroute.gate", "load_checkpoint"),
    ("tableroute.gate", "save_checkpoint"),
    ("tableroute.gate", "concat_input"),
    ("tableroute.gate", "forward"),
    ("tableroute.gate", "forward_batch"),
    ("tableroute.gate", "backward_batch"),
    ("tableroute.gate", "pack_gradients"),
    ("tableroute.numerics", "adamw_step"),
    ("tableroute.numerics", "clip_grad_norm"),
    ("tableroute.trainer", "train"),
    ("tableroute.trainer", "routed_paths"),
    ("tableroute.engine", "route"),
    ("tableroute.engine", "infer"),
    ("tableroute.engine", "run_efficiency_bench"),
    ("tableroute.engine", "measure_all_costs"),
    ("tableroute.analysis", "outcome_records"),
)


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = [0]
        self._next_id = 1

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(
        self, name: str, fn: Callable, observe: Callable | None = None, track_rss: bool = False
    ) -> Callable:
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            rss0 = _rss_bytes() if track_rss else 0
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if track_rss:
                self.add(f"{name}.rss_bytes", _rss_bytes() - rss0)
            if observe is not None:
                observe(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counters": self.counters,
        }


def _observe_rows(tracer: Tracer, name, args, kwargs, result) -> None:
    x = args[1] if len(args) > 1 else kwargs["X"]
    tracer.add(f"{name}.rows", x.shape[0])


def _observe_adamw(tracer: Tracer, name, args, kwargs, result) -> None:
    tracer.add(f"{name}.bytes", 7 * args[0].nbytes)


def _observe_fuse(tracer: Tracer, name, args, kwargs, result) -> None:
    tracer.add("fusion.fuse.degraded", int(result.degraded))


def _observe_ingest(tracer: Tracer, name, args, kwargs, result) -> None:
    tracer.add("ingest.ingest.skipped", len(result.skipped))


def _observe_infer(tracer: Tracer, name, args, kwargs, result) -> None:
    if kwargs.get("mode", "adaptive") == "adaptive":
        tracer.add(f"engine.infer.adaptive.{result.chosen_path}")


def _observe_train(tracer: Tracer, name, args, kwargs, result) -> None:
    tracer.add("trainer.train.optimizer_steps", len(result.history))


OBSERVERS = {
    "gate.forward_batch": _observe_rows,
    "numerics.adamw_step": _observe_adamw,
    "fusion.fuse": _observe_fuse,
    "ingest.ingest": _observe_ingest,
    "engine.infer": _observe_infer,
    "trainer.train": _observe_train,
}


# Spans that also record resident-memory growth across the call.
TRACK_RSS = {"corpus.load_corpus"}


def install(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever a tableroute module holds it."""
    modules = [m for n, m in sys.modules.items() if n == "tableroute" or n.startswith("tableroute.")]
    for module_name, attr in TRACED:
        module = importlib.import_module(module_name)
        span_name = f"{module_name.split('.')[-1]}.{attr.split('.')[-1]}"
        observe = OBSERVERS.get(span_name)
        track_rss = span_name in TRACK_RSS
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth), observe, track_rss))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, observe, track_rss)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for spans and counters")
    parser.add_argument("--run-id", required=True, help="identifier shared by this run's spans")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import tableroute.cli

    tracer = Tracer(args.run_id)
    install(tracer)
    main_fn = tracer.wrap(f"cli.{command[0]}", tableroute.cli.main)
    try:
        rc = main_fn(command)
    finally:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
