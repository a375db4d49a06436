"""In-memory span tracer that wraps adkit's public functions from outside.

Each traced function is replaced at every binding site: its defining module,
every other ``adkit`` module that imported it by name (``iso`` imports
``is_two_nilpotent`` and ``power_series`` directly, for instance), and the
class attribute for ``Poly`` methods.  Patching only the defining module
would miss the calls made through the by-name imports.

Per span name the tracer keeps a call count and a self time (span duration
minus the time covered by its child spans).  Span records (name, op, parent,
start, end) are kept in memory for every layer above ``scalars`` and written
out once, when the run ends; ``Poly`` arithmetic runs millions of times per
pass, so it is aggregated only.
"""

from __future__ import annotations

import json
import sys
import time

#: (span name, module, attribute names).  A dotted attribute is a method.
SPANS = (
    ("scalars.Poly.mul", "scalars", ("Poly.__mul__", "Poly.__rmul__")),
    ("scalars.Poly.add", "scalars", ("Poly.__add__", "Poly.__radd__")),
    ("scalars.Poly.subs", "scalars", ("Poly.subs",)),
    ("scalars.Poly.normalized_key", "scalars", ("Poly.normalized_key",)),
) + tuple(
    (f"{module}.{fn}", module, (fn,))
    for module, fns in (
        ("linalg", ("rref", "nullspace", "det", "invert", "span_dim",
                    "det_poly")),
        ("algebra", ("check_antidendriform", "is_associative",
                     "is_two_nilpotent", "power_series", "center_ad",
                     "center_associative", "left_annihilator",
                     "right_annihilator", "quotient_by_center",
                     "transport_tensor")),
        ("solver", ("generate_constraints", "eliminate", "replay_certificate",
                    "enumerate_compatible")),
        ("iso", ("fingerprint", "search_witness", "verify_witness")),
        ("catalog", ("verify_all", "verify_iso_note")),
        ("fileio", ("parse_algebra", "render_algebra")),
        ("cli", ("main",)),
    )
    for fn in fns
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)

#: (outer, inner): count inner calls made while an outer span is open.
NESTED_COUNTS = (("solver.eliminate", "scalars.Poly.subs"),)

MAX_SPAN_RECORDS = 1_000_000


def self_times(records):
    """Self time of each span record (name, op, parent, start, end).

    A parent of -1 marks a root.  Children nest inside their parent, so a
    span's self time is its duration minus its children's durations.
    """
    out = [end - start for _, _, _, start, end in records]
    for _, _, parent, start, end in records:
        if parent >= 0:
            out[parent] -= end - start
    return out


class Tracer:
    """Installs wrappers on ``install`` and restores the originals on
    ``uninstall``; ``calls``, ``self_s`` and ``nested`` only accumulate."""

    def __init__(self):
        self.op = -1                # op number stamped on span records
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.nested = {pair: 0 for pair in NESTED_COUNTS}
        self.records = []           # [name, op, parent record, start, end]
        self._patches = []          # (owner, attribute, original)
        self._stack = []            # [child time, record index] per open span
        self._active = {name: 0 for name in SPAN_NAMES}

    # -- patching -----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "adkit"
                                         or name.startswith("adkit."))]
        by_short = {m.__name__.rpartition(".")[2]: m for m in modules}
        for name, module, attrs in SPANS:
            home = by_short[module]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, original,
                                self._wrap(name, original, record=False))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, record=True)
                sites = [m for m in modules
                         if m.__dict__.get(attr) is original]
                for site in sites:
                    self._patch(site, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, name, fn, record: bool):
        active, stack, records = self._active, self._stack, self.records
        watched = [pair[0] for pair in NESTED_COUNTS if pair[1] == name]
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            for outer in watched:
                if active[outer]:
                    tracer.nested[(outer, name)] += 1
            # frame: [time covered by children, nearest recorded span]
            frame = [0.0, stack[-1][1] if stack else -1]
            rec = None
            if record and len(records) < MAX_SPAN_RECORDS:
                rec = [name, tracer.op, frame[1], 0.0, 0.0]
                frame[1] = len(records)
                records.append(rec)
            active[name] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                duration = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if rec is not None:
                    rec[3], rec[4] = start, end

        span.__wrapped__ = fn
        return span

    def write(self, path):
        """Write the recorded spans as one JSON document."""
        doc = {"fields": ["name", "op", "parent", "start_s", "end_s"],
               "truncated": len(self.records) >= MAX_SPAN_RECORDS,
               "spans": self.records}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
