"""Spans around the calls into lambertwave's layers, recorded from outside.

Each traced function is replaced wherever its callers look it up: in every
loaded ``lambertwave`` module whose namespace holds the original object
(``cli`` and ``verify`` import names directly, and the package's re-export
of the function ``bell`` shadows the submodule attribute, so modules are
reached through ``sys.modules``).  Methods are replaced on their class.
Spans (name, start, end, parent) are kept in memory and written out at the
end; self time is span time minus the time covered by child spans.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "lambertwave"


def _bytes_written(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _points(pos):
    def record(fn, args, kwargs, result):
        return {"points": int(np.size(args[pos]))}

    return record


def _factors(fn, args, kwargs, result):
    return {"factors": len(result.scales)}


def _synth_attrs(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    n = bound.arguments["N"]
    check = bound.arguments["check_periodization"]
    digest = hashlib.blake2b(result.grid.values.tobytes(), digest_size=16).hexdigest()
    return {"points": n * (3 if check else 1), "digest": digest}


# (defining module, attribute, span name, attribute recorder)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "write_csv", "cli.write_csv", _bytes_written),
    ("cli", "write_json", "cli.write_json", None),
    ("cli", "_sha256", "cli.sha256", None),
    ("lambert", "lambert_w0", "lambert.w0", _points(0)),
    ("gevrey", "assoc_t_exact", "gevrey.assoc", None),
    ("mollifier", "build_mollifier", "mollifier.build", _factors),
    ("mollifier", "derivative_bound_audit", "mollifier.audit", None),
    ("bell", "build_wavelet", "bell.build_wavelet", None),
    ("bell", "synthesize_psi_lattice", "bell.synth", _synth_attrs),
    ("bell", "eval_psi_point", "bell.point_eval", None),
    ("bell", "BellEvaluator.bell_at", "bell.bell_at", _points(1)),
    ("verify", "mixed_bound_audit", "verify.mixed_audit", None),
    ("verify", "derivative_decay_check", "verify.deriv_decay", None),
    ("verify", "decay_envelope", "verify.envelope", None),
    ("verify", "gram_matrix", "verify.gram", None),
    ("verify", "dyadic_sum_check", "verify.dyadic", None),
    ("verify", "completeness_check", "verify.completeness", None),
    ("verify", "fit_decay", "verify.fit", None),
    ("verify", "linprog", "verify.lp", None),
)

# per-layer metric -> (span name, what to take from its spans)
LAYER_METRICS = {
    "bell.synth_calls": ("bell.synth", "calls"),
    "bell.synth_distinct": ("bell.synth", "distinct"),
    "bell.synth_points": ("bell.synth", "points"),
    "bell.synth_s": ("bell.synth", "self_s"),
    "bell.build_wavelet_s": ("bell.build_wavelet", "self_s"),
    "bell.bell_at_calls": ("bell.bell_at", "calls"),
    "bell.bell_at_points": ("bell.bell_at", "points"),
    "bell.bell_at_s": ("bell.bell_at", "self_s"),
    "bell.point_eval_calls": ("bell.point_eval", "calls"),
    "bell.point_eval_s": ("bell.point_eval", "self_s"),
    "verify.mixed_audit_s": ("verify.mixed_audit", "self_s"),
    "verify.deriv_decay_s": ("verify.deriv_decay", "self_s"),
    "verify.envelope_s": ("verify.envelope", "self_s"),
    "verify.gram_s": ("verify.gram", "self_s"),
    "verify.dyadic_s": ("verify.dyadic", "self_s"),
    "verify.completeness_s": ("verify.completeness", "self_s"),
    "verify.fit_s": ("verify.fit", "self_s"),
    "verify.lp_s": ("verify.lp", "self_s"),
    "mollifier.build_calls": ("mollifier.build", "calls"),
    "mollifier.cascade_factors": ("mollifier.build", "factors"),
    "mollifier.build_s": ("mollifier.build", "self_s"),
    "mollifier.audit_s": ("mollifier.audit", "self_s"),
    "cli.write_csv_calls": ("cli.write_csv", "calls"),
    "cli.csv_bytes": ("cli.write_csv", "bytes"),
    "cli.write_csv_s": ("cli.write_csv", "self_s"),
    "cli.write_json_s": ("cli.write_json", "self_s"),
    "cli.sha256_s": ("cli.sha256", "self_s"),
    "lambert.w0_calls": ("lambert.w0", "calls"),
    "lambert.w0_points": ("lambert.w0", "points"),
    "lambert.w0_s": ("lambert.w0", "self_s"),
    "gevrey.assoc_calls": ("gevrey.assoc", "calls"),
    "gevrey.assoc_s": ("gevrey.assoc", "self_s"),
}


class Tracer:
    """In-memory span recorder; ``install`` swaps the traced functions in."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, self_s, attrs]
        self._stack = []  # [span index, time covered by children]

    def wrap(self, fn, name, recorder):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent, (t1 - t0) - frame[1], {}]
                if stack:
                    stack[-1][1] += t1 - t0
            if recorder:
                spans[idx][5] = recorder(fn, args, kwargs, result)
                if stack:
                    # the recorder's own work is charged to no layer
                    stack[-1][1] += time.perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for owner, attr, name, recorder in TRACED:
            home = mods[f"{PACKAGE}.{owner}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), name, recorder))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, recorder)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def layer_metrics(self) -> dict:
        agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0,
                                   "bytes": 0, "factors": 0, "digests": set()})
        for name, _, _, _, self_s, attrs in self.spans:
            a = agg[name]
            a["calls"] += 1
            a["self_s"] += self_s
            for key in ("points", "bytes", "factors"):
                a[key] += attrs.get(key, 0)
            if "digest" in attrs:
                a["digests"].add(attrs["digest"])
        out = {}
        for metric, (span, field) in LAYER_METRICS.items():
            a = agg[span]
            out[metric] = len(a["digests"]) if field == "distinct" else a[field]
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, self_s, attrs in self.spans:
                rec = {"name": name, "start": t0, "end": t1, "parent": parent,
                       "self_s": self_s}
                rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")
