"""Per-layer spans and counts, recorded from outside the library.

``Tracer.install`` replaces the public functions of each layer, wherever a
heckemod module holds a reference to them, with wrappers that time the call
and record a span (name, start, end, parent).  Field operations on ``Cyc``
run hundreds of thousands of times per pass, too many for one span each:
they are counted and timed in aggregate only.

A layer's self time is the duration of its calls minus the part covered by
other traced calls nested inside them.  Spans stay in memory until
``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


def _matmul_terms(a, b) -> int:
    """Scalar products of a sparse product, from the operands' nnz: the sum
    over k of nnz(column k of a) * nnz(row k of b)."""
    rows = Counter(i for i, _ in b.data)
    return sum(rows[k] for _, k in a.data)


def _checks(report) -> int:
    return len(report.checks)


# span name -> the public functions and methods it wraps, as (module,
# attribute path)
TARGETS = {
    "cyclo.mul": [("cyclo", "Cyc.__mul__"), ("cyclo", "Cyc.__rmul__")],
    "cyclo.addsub": [("cyclo", "Cyc.__add__"), ("cyclo", "Cyc.__radd__"),
                     ("cyclo", "Cyc.__sub__"), ("cyclo", "Cyc.__rsub__")],
    "cyclo.inverse": [("cyclo", "Cyc.inverse")],
    "linalg.matmul": [("linalg", "Mat.__mul__")],
    "linalg.nullspace": [("linalg", "nullspace_dim")],
    "grpalg.evaluate": [("grpalg", "evaluate_in_module")],
    "modules.build": [("modules", "build_module")],
    "modules.relations": [("modules", "verify_relations")],
    "modules.intertwiners": [("modules", "verify_intertwiners")],
    "modules.commutant": [("modules", "commutant_dimension")],
    "modules.central_character": [("modules", "central_character")],
    "modules.jm": [("modules", "jm_consistency")],
    "shapes.enumerate_shapes": [("shapes", "enumerate_shapes")],
    "shapes.enumerate_syt": [("shapes", "enumerate_syt")],
    "shapes.validate": [("shapes", "validate_and_canonicalize"),
                        ("shapes", "partition_shape")],
    "shapes.joint_placement": [("shapes", "joint_placement")],
    "shapes.json": [("shapes", name) for name in (
        "shape_to_json", "shape_from_json", "tableau_to_json",
        "tableau_from_json", "weight_to_json", "weight_from_json")],
    "classify.condition": [("classify", "check_weight_condition")],
    "classify.reconstruct": [("classify", "reconstruct")],
}
AGGREGATE_ONLY = ("cyclo.",)
# span name -> extra count, taken from the call's arguments or its result
ARG_COUNTS = {
    "linalg.matmul": _matmul_terms,
    "linalg.nullspace": lambda rows, ncols, ell: ncols,
    "grpalg.evaluate": lambda x, module: len(getattr(x, "terms", (x,))),
}
RESULT_COUNTS = {
    "modules.build": lambda module: module.dim,
    "modules.relations": _checks,
    "modules.intertwiners": _checks,
}
# per-layer metric -> (span names, statistic); statistic is "calls",
# "self_s" or "count" (the extra count above)
METRICS = {
    "cyclo.mul.calls": (["cyclo.mul"], "calls"),
    "cyclo.addsub.calls": (["cyclo.addsub"], "calls"),
    "cyclo.inverse.calls": (["cyclo.inverse"], "calls"),
    "cyclo.self_s": (["cyclo.mul", "cyclo.addsub", "cyclo.inverse"], "self_s"),
    "linalg.matmul.calls": (["linalg.matmul"], "calls"),
    "linalg.matmul.terms": (["linalg.matmul"], "count"),
    "linalg.matmul.self_s": (["linalg.matmul"], "self_s"),
    "linalg.nullspace.calls": (["linalg.nullspace"], "calls"),
    "linalg.nullspace.unknowns": (["linalg.nullspace"], "count"),
    "linalg.nullspace.self_s": (["linalg.nullspace"], "self_s"),
    "grpalg.evaluate.calls": (["grpalg.evaluate"], "calls"),
    "grpalg.evaluate.terms": (["grpalg.evaluate"], "count"),
    "grpalg.evaluate.self_s": (["grpalg.evaluate"], "self_s"),
    "modules.build.self_s": (["modules.build"], "self_s"),
    "modules.build.basis": (["modules.build"], "count"),
    "modules.relations.self_s": (["modules.relations"], "self_s"),
    "modules.relations.identities": (["modules.relations"], "count"),
    "modules.intertwiners.self_s": (["modules.intertwiners"], "self_s"),
    "modules.intertwiners.identities": (["modules.intertwiners"], "count"),
    "modules.commutant.self_s": (["modules.commutant"], "self_s"),
    "modules.central_character.self_s": (["modules.central_character"], "self_s"),
    "modules.jm.self_s": (["modules.jm"], "self_s"),
    "shapes.enumerate_shapes.self_s": (["shapes.enumerate_shapes"], "self_s"),
    "shapes.enumerate_syt.calls": (["shapes.enumerate_syt"], "calls"),
    "shapes.enumerate_syt.self_s": (["shapes.enumerate_syt"], "self_s"),
    "shapes.validate.calls": (["shapes.validate"], "calls"),
    "shapes.validate.self_s": (["shapes.validate"], "self_s"),
    "shapes.joint_placement.calls": (["shapes.joint_placement"], "calls"),
    "shapes.joint_placement.self_s": (["shapes.joint_placement"], "self_s"),
    "shapes.json.self_s": (["shapes.json"], "self_s"),
    "classify.condition.calls": (["classify.condition"], "calls"),
    "classify.condition.self_s": (["classify.condition"], "self_s"),
    "classify.reconstruct.calls": (["classify.reconstruct"], "calls"),
    "classify.reconstruct.self_s": (["classify.reconstruct"], "self_s"),
}
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, extra count]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id or None, child seconds]
        self._ids = 0
        self._origin = perf_counter()
        self.active = True  # off while the benchmark itself calls the library

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        arg_count = ARG_COUNTS.get(name)
        result_count = RESULT_COUNTS.get(name)
        if name.startswith(AGGREGATE_ONLY):
            def traced(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                frame = [None, 0.0]
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1][1] += took
                    stats[0] += 1
                    stats[1] += took - frame[1]
            return traced

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if arg_count is not None:
                stats[2] += arg_count(*args, **kwargs)
            parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
            self._ids += 1
            frame = [self._ids, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                stats[0] += 1
                stats[1] += end - start - frame[1]
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], parent, name, start, end))
                else:
                    self.dropped += 1
            if result_count is not None:
                stats[2] += result_count(result)
            return result
        return traced

    def install(self, package) -> None:
        """Wrap every target in every heckemod module that refers to it."""
        modules = [package] + [getattr(package, m) for m in
                               ("cyclo", "linalg", "grpalg", "shapes", "modules", "classify")]
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                owner = getattr(package, module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                    continue
                original = getattr(owner, path)
                traced = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, traced)

    def metrics(self, scale: float) -> dict[str, float]:
        """Per-layer metrics; self times are multiplied by ``scale`` (the
        run's normalisation from wall to reference seconds)."""
        out = {}
        for metric, (names, stat) in METRICS.items():
            rows = [self.stats[n] for n in names if n in self.stats]
            if stat == "calls":
                out[metric] = sum(r[0] for r in rows)
            elif stat == "count":
                out[metric] = sum(r[2] for r in rows)
            else:
                out[metric] = sum(r[1] for r in rows) * scale
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": round(start - self._origin, 7),
                                     "end": round(end - self._origin, 7)}) + "\n")
