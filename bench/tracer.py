"""Spans around the public functions of every nbrepro module.

The wrappers are installed from the benchmark's side, in the process that
runs nbrepro, so the program itself is unchanged. Each wrapped call records
one span: id, parent id, name, start, end, repository_id, thread and an
optional size (bytes parsed, rows read). Spans stay in memory until the
process writes them out at exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from enum import Enum

MODULES = ("corpus", "notebook", "depinfer", "containerize", "executor",
           "compare", "store", "report", "outcomes", "pipeline", "cli")

# Private methods that are layer boundaries: one SQL write, one runtime call.
_PRIVATE_BOUNDARIES = {("Store", "_write"), ("DockerCli", "_run")}

STORE_READS = frozenset({
    "get_repository", "list_repositories", "get_notebook", "list_notebooks",
    "get_run", "list_runs", "get_execution", "list_executions",
    "get_metrics", "list_metrics",
})


def _rows(result) -> int:
    if result is None:
        return 0
    if isinstance(result, (list, dict)):
        return len(result)
    return 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, *, namer=None, sizer=None, repository=None):
        """``namer`` picks the span name from the arguments, ``sizer`` a
        size from the arguments and the result (None after an exception),
        ``repository`` the repository_id from the arguments; spans inherit
        it otherwise."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, parent_repo = stack[-1] if stack else (None, None)
            span_id = next(self._ids)
            repo = (repository(args) if repository else None) or _repository_of(args) \
                or parent_repo
            stack.append((span_id, repo))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, namer(args) if namer else name,
                                   start, end, repo, threading.get_ident(),
                                   sizer(args, result) if sizer else None))

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the nbrepro modules and
        rebind each reference to them, including names imported into other
        modules and entries of dispatch tables."""
        modules = {name: importlib.import_module(f"nbrepro.{name}") for name in MODULES}
        repository_id_for = modules["corpus"].repository_id_for
        by_url = lambda args: (repository_id_for(args[1])
                               if len(args) > 1 and isinstance(args[1], str) else None)
        replaced: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    sizer = (lambda args, result: len(args[0])) \
                        if (short, attr) == ("notebook", "parse_notebook") else None
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj, sizer=sizer)
                elif inspect.isclass(obj) and not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(short, obj, by_url)
        for module_name, module in list(sys.modules.items()):
            if module_name != "nbrepro" and not module_name.startswith("nbrepro."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            obj[key] = replaced[id(value)]

    def _wrap_class(self, short: str, cls, by_url) -> None:
        for attr, member in list(vars(cls).items()):
            if not inspect.isfunction(member):
                continue
            if attr.startswith("_") and (cls.__name__, attr) not in _PRIVATE_BOUNDARIES:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            options = {}
            if (cls.__name__, attr) == ("DockerCli", "_run"):
                options["namer"] = lambda args: f"runtime.{args[1][0]}"
            elif cls.__name__ == "Store" and attr in STORE_READS:
                options["sizer"] = lambda args, result: _rows(result)
            elif cls.__name__ == "Pipeline" and attr in ("run_repository", "infer_repository"):
                options["repository"] = by_url
            setattr(cls, attr, self.wrap(name, member, **options))


def _repository_of(args) -> str | None:
    for arg in args:
        value = getattr(arg, "repository_id", None)
        if isinstance(value, str):
            return value
    return None


def install_setup_stamps(stamps: dict) -> None:
    """Record when the CLI handler starts and when the first repository-level
    call begins; the untraced runs need nothing else."""
    from nbrepro import cli, pipeline

    def once(key, fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            stamps.setdefault(key, time.monotonic())
            return fn(*args, **kwargs)
        return stamped

    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = once("handler", handler)
    pipeline.Pipeline.run_repository = once("first_repository",
                                            pipeline.Pipeline.run_repository)
