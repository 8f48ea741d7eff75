"""Spans around zklab's public functions, installed from outside the package.

``install`` imports every ``zklab`` submodule, then replaces every attribute
of every ``zklab.*`` module that *is* one of the package's public functions
with a wrapper that records a span.  That covers the copies that ``from .dynamics import evolve`` and the
like leave in other modules.  It also wraps a fixed list of methods and the
``numpy.fft`` transforms.  ``uninstall`` puts every original back.

A span is ``[name, start, end, parent, size]``: ``parent`` is the index of
the enclosing span or -1, and ``size`` is a count the wrapper measured (input
points for an FFT, bytes for a file write, else 0).  Spans stay in memory
until ``write_spans``.

Work done inside closures (``_advance.nonlin`` in the stepper, the factored
Lambda3/Lambda4 evaluators, the trilinear probe's ``record``) cannot be
wrapped from outside; it shows up in the self time of the enclosing public
function.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time

import numpy as np

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# (module, class, attribute, span name)
METHODS = (
    ("zklab.forms", "DispersionForm", "omega", "forms.omega"),
    ("zklab.forms", "DispersionForm", "nonlinear_derivative",
     "forms.nonlinear_derivative"),
    ("zklab.spectral", "Field", "physical", "spectral.Field.physical"),
    ("zklab.trajectory", "SpaceTimeField", "values",
     "trajectory.SpaceTimeField.values"),
    ("zklab.reporting", "DiagnosticsRecorder", "__call__",
     "reporting.DiagnosticsRecorder"),
    ("zklab.littlewood_paley", "LPProjector", "__init__",
     "littlewood_paley.LPProjector"),
)

WRITERS = ("reporting.write_csv", "reporting.write_json", "reporting.write_frame_csv")


def _input_points(args, kwargs, result) -> int:
    return int(np.size(args[0] if args else kwargs["a"]))


def _file_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, size=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[4] = size(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap zklab's public functions, the listed methods and numpy.fft."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import zklab

        for info in pkgutil.iter_modules(zklab.__path__):
            importlib.import_module(f"zklab.{info.name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "zklab" or name.startswith("zklab.")) and mod is not None}
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == modname
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[value] = self.wrap(
                        name, value, _file_bytes if name in WRITERS else None)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(mod, attr, wrappers[value])
        for modname, cls_name, attr, name in METHODS:
            cls = getattr(modules[modname], cls_name)
            self._replace(cls, attr, self.wrap(name, cls.__dict__[attr]))
        for attr in FFT_NAMES:
            self._replace(np.fft, attr,
                          self.wrap(f"fft.{attr}", getattr(np.fft, attr), _input_points))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, size."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
