"""Spans around the calls into thetaflow's public functions.

The tracer wraps every public function of the thetaflow modules, and the
numpy.fft transforms the library calls through ``np.fft``, for the
duration of an ``active()`` block. A wrapped name is replaced in every
thetaflow module that bound the same function object, because modules
such as ``semigroups`` call ``theta_evolve_d`` and ``circular_convolve``
through their own namespace. Outside an ``active()`` block nothing is
patched, so untraced requests run the unmodified library.

Spans are kept in memory (name, start, end, parent, request, counts) and
written out once, as JSON lines, when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

LAYERS = ("fourier", "theta", "semigroups", "checks", "ultradist", "io", "cli")

# numpy.fft entry points; the library reaches them as np.fft.<name>.
FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn", "rfft2", "irfft2")

# Layers whose outermost calls get a tracemalloc peak.
ALLOC_LAYERS = ("semigroups", "io")


def _series_terms(args, kwargs):
    # Cosine passes of theta3_series: n >= 1 with 2 q^(n^2) >= tol. Computed
    # from (q, tol) with the same stopping rule, not observed inside the loop.
    params = kwargs.get("params", args[1] if len(args) > 1 else None)
    q, tol = params.q, params.tol
    n = 0
    if q > 0.0:
        while 2.0 * q ** ((n + 1) * (n + 1)) >= tol:
            n += 1
    return n


def _product_factors(args, kwargs):
    # Factors of theta3_product. |1 - factor| is monotone in cos x, so the
    # stopping rule is decided at the extreme values of cos x. Computed.
    import numpy as np

    x = np.asarray(args[0], dtype=float)
    params = kwargs.get("params", args[1] if len(args) > 1 else None)
    q, tol = params.q, params.tol
    if q == 0.0:
        return 0
    cx = np.cos(np.mod(x, 2.0 * math.pi))
    lo, hi = float(np.min(cx)), float(np.max(cx))
    n = 1
    while n <= params.max_terms:
        b = q ** (2 * n - 1)
        euler = 1.0 - q ** (2 * n)
        worst = max(abs(1.0 - (1.0 + 2.0 * b * c + b * b) * euler) for c in (lo, hi))
        if worst < tol:
            return n
        n += 1
    return n


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counts recorded on a span: name -> fn(args, kwargs, result) -> dict.
COUNTERS = {
    "theta.theta3_series": lambda a, k, r: {"series_terms": _series_terms(a, k)},
    "theta.theta3_product": lambda a, k, r: {"product_factors": _product_factors(a, k)},
    "ultradist.pair": lambda a, k, r: {"pair_terms": int(r.terms)},
    "ultradist.check_membership": lambda a, k, r: {"checked_up_to": int(r.checked_up_to)},
    "io.save_function": lambda a, k, r: {
        "bytes_written": _file_size(k.get("path", a[1] if len(a) > 1 else ""))},
    "io.load_function": lambda a, k, r: {
        "bytes_read": _file_size(k.get("path", a[0] if a else ""))},
}


def _fft_counts(args, kwargs, result):
    import numpy as np

    return {"points": int(np.size(args[0] if args else kwargs.get("a")))}


class Tracer:
    """Collects spans for the requests run inside ``active()`` blocks.

    With ``alloc=True`` the outermost call of each layer in ALLOC_LAYERS
    also records its tracemalloc peak. tracemalloc slows the traced code
    several-fold, so an allocation tracer's span times are not used.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._request = None
        self._alloc_owner = None

    def _wrap(self, name: str, fn, counter=None):
        tracer = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"id": len(tracer.spans), "name": name,
                    "parent": None if parent is None else parent["id"],
                    "request": tracer._request}
            tracer.spans.append(span)
            own_alloc = (tracer.alloc and layer in ALLOC_LAYERS
                         and tracer._alloc_owner is None and not tracemalloc.is_tracing())
            if own_alloc:
                tracer._alloc_owner = span["id"]
                tracemalloc.start()
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if own_alloc:
                    span["alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._alloc_owner = None
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _targets(self):
        """(module, attribute, original, span name) for every patch site."""
        import numpy as np

        modules = [(name, mod) for name, mod in list(sys.modules.items())
                   if mod is not None
                   and (name == "thetaflow" or name.startswith("thetaflow."))]
        owners = {}
        for modname, mod in modules:
            layer = modname.partition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == modname):
                    owners[id(obj)] = (obj, f"{layer}.{attr}")
        sites = []
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = owners.get(id(obj))
                if hit is not None and hit[0] is obj:
                    sites.append((mod, attr, obj, hit[1]))
        for attr in FFT_NAMES:
            fn = getattr(np.fft, attr, None)
            if fn is not None:
                sites.append((np.fft, attr, fn, "fourier.fft"))
        return sites

    @contextmanager
    def active(self, request_id):
        """Patch the library for one request and record its spans."""
        wrappers = {}
        patched = []
        for mod, attr, orig, name in self._targets():
            w = wrappers.get(id(orig))
            if w is None:
                counter = _fft_counts if name == "fourier.fft" else COUNTERS.get(name)
                w = wrappers[id(orig)] = self._wrap(name, orig, counter)
            setattr(mod, attr, w)
            patched.append((mod, attr, orig))
        self._request = request_id
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)
            self._request = None

    def add_external(self, spans: list[dict], request_id) -> None:
        """Adopt spans recorded in another process (the CLI launcher)."""
        base = len(self.spans)
        for s in spans:
            s = dict(s)
            s["id"] += base
            if s.get("parent") is not None:
                s["parent"] += base
            s["request"] = request_id
            self.spans.append(s)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


def alloc_peaks(spans: list[dict]) -> dict:
    """Largest tracemalloc peak of one call, in MiB, per layer."""
    peaks = {f"{layer}.alloc_peak_mb": 0.0 for layer in ALLOC_LAYERS}
    for s in spans:
        if "alloc_peak_bytes" in s:
            key = s["name"].split(".", 1)[0] + ".alloc_peak_mb"
            peaks[key] = max(peaks[key], s["alloc_peak_bytes"] / 2**20)
    return peaks


def layer_metrics(spans: list[dict], requests: int) -> dict:
    """Per-request layer figures from the spans of ``requests`` traced requests.

    Times are inclusive seconds per request, summed over the outermost
    spans of each name, except ``semigroups.subordinate_s``, which is self
    time (the span minus its child spans). Counts are per request.
    """
    by_id = {s["id"]: s for s in spans}
    per = max(requests, 1)

    def dur(s):
        return s["end"] - s["start"]

    def nested_in_same(s):
        p = s.get("parent")
        while p is not None:
            ps = by_id[p]
            if ps["name"] == s["name"]:
                return True
            p = ps.get("parent")
        return False

    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[int, float] = {}
    counts: dict[str, float] = {}
    nodes = 0
    for s in spans:
        name = s["name"]
        calls[name] = calls.get(name, 0) + 1
        if not nested_in_same(s):
            incl[name] = incl.get(name, 0.0) + dur(s)
        if s.get("parent") is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + dur(s)
            if name == "semigroups.theta_evolve_d" and by_id[s["parent"]]["name"] in (
                    "semigroups.subordinate", "semigroups.poisson_evolve_d"):
                nodes += 1
        for key, val in (s.get("counts") or {}).items():
            counts[key] = counts.get(key, 0) + val
    sub_self = sum(dur(s) - child_time.get(s["id"], 0.0)
                   for s in spans if s["name"] == "semigroups.subordinate")

    def t(name):
        return incl.get(name, 0.0) / per

    return {
        "fourier.fft_calls": calls.get("fourier.fft", 0) / per,
        "fourier.fft_points": counts.get("points", 0) / per,
        "fourier.fft_s": t("fourier.fft"),
        "fourier.circular_convolve_s": t("fourier.circular_convolve"),
        "semigroups.apply_multiplier_s": t("semigroups.apply_multiplier"),
        "semigroups.apply_multiplier_calls": calls.get("semigroups.apply_multiplier", 0) / per,
        "semigroups.subordinate_s": sub_self / per,
        "semigroups.subordinate_nodes": nodes / per,
        "semigroups.poisson_evolve_d_s": t("semigroups.poisson_evolve_d"),
        "theta.kernel_s": t("theta.kernel"),
        "theta.theta3_series_s": t("theta.theta3_series"),
        "theta.series_terms": counts.get("series_terms", 0) / per,
        "theta.theta3_product_s": t("theta.theta3_product"),
        "theta.product_factors": counts.get("product_factors", 0) / per,
        "checks.run_suite_s": t("checks.run_suite"),
        "ultradist.pair_s": t("ultradist.pair"),
        "ultradist.pair_terms": counts.get("pair_terms", 0) / per,
        "ultradist.check_membership_s": t("ultradist.check_membership"),
        "ultradist.checked_up_to": counts.get("checked_up_to", 0) / per,
        "ultradist.evolve_ultra_s": t("ultradist.evolve_ultra"),
        "ultradist.positivity_check_s": t("ultradist.positivity_check"),
        "io.save_function_s": t("io.save_function"),
        "io.load_function_s": t("io.load_function"),
        "io.bytes_written": counts.get("bytes_written", 0) / per,
        "io.bytes_read": counts.get("bytes_read", 0) / per,
        "cli.main_s": t("cli.main"),
    }


def import_times(stderr_text: str) -> dict:
    """Cumulative seconds for thetaflow and scipy.integrate from -X importtime."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in ("thetaflow", "scipy.integrate"):
            try:
                found[name] = int(parts[1].strip()) / 1e6
            except ValueError:
                continue
    return found
