"""heckemod benchmark: one process, one thread, standard library only.

    python3 perfbench/run.py --workload verify-n4 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; heckemod is imported from its ``src``.
Every workload verifies modules and classifies weights, in whole rounds of
the same operations, and checks every output against the independent
oracles in ``oracles.py``.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, timed in reference seconds (see
``refclock.py``); the line before it holds the raw wall-clock figures.
With ``--trace 1`` the run makes one untraced and one traced round and
reports the per-layer metrics of ``spans.py`` plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from corpus import corpus
from inputs import classify_inputs, multipartitions, partition_cells, shape_json
from oracles import (check_tableau, check_u_character, check_witness,
                     components_from_json, filling_count, hook_count,
                     normal_form)
from refclock import Clock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5

# weight bands: (count, min n, max n); the reject band breaks fillings of
# shapes with n in its range.  Counts are sized so that each band takes a
# similar share of a round, about 2 s of reference time each (3 s for the
# small band, whose per-weight timings are the noisiest).
BANDS = {"small": (8000, 2, 6), "large": (450, 12, 30), "reject": (10000, 4, 20)}
# module sets: (ell values, n values, partitions only)
MODULE_SETS = {"n4": ((1, 2, 3), (1, 2, 3, 4), False),
               "n4-rational": ((1, 2), (1, 2, 3, 4), False),
               "n6": ((1, 2), (6,), True)}
WORKLOADS = {"verify-n4": "n4", "verify-n6": "n6", "classify": "n4-rational"}
# direct sums of partition modules and their commutant dimensions; the
# shapes are looked up in the program's catalogues of (ell, n)
CONTROLS = [(1, [[2, 1]], [[3]], 2), (1, [[2, 1]], [[2, 1]], 4),
            (2, [[1], [1]], [[2], []], 2), (2, [[1], [1]], [[1], [1]], 4)]
CONTROL_CATALOGUES = [(1, 3), (2, 2)]


def partitions_key(ell: int, lams, anchored: bool = False) -> tuple:
    """Normal form of the shape of a tuple of partitions, corners at content
    0, or slid to least content 0 in every colour (as the catalogues of
    enumerate_shapes anchor them)."""
    comps = []
    for beta, lam in enumerate(lams):
        if lam:
            cells = partition_cells(lam)
            low = min(c for _, c in cells) if anchored else 0
            comps.append((beta, 0, {(r, c - low) for r, c in cells}))
    return normal_form(ell, comps)


def import_heckemod():
    """Import heckemod afresh from the checkout's src, so that every cache
    in the package starts empty."""
    for name in [m for m in sys.modules if m == "heckemod" or m.startswith("heckemod.")]:
        del sys.modules[name]
    import heckemod
    if Path(heckemod.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"heckemod imported from {heckemod.__file__}, not {SRC}")
    return heckemod


def package_caches(hm) -> list:
    """Every functools cache in the package."""
    mods = [hm.cyclo, hm.linalg, hm.grpalg, hm.shapes, hm.modules, hm.classify]
    found = {id(v): v for m in mods for v in vars(m).values() if hasattr(v, "cache_clear")}
    return list(found.values())


class Run:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(seed)
        self.weights = [(band, ell, comps, a, b, text,
                         None if band == "reject" else normal_form(ell, comps))
                        for band, ell, comps, a, b, text in classify_inputs(seed, BANDS)]
        self.rng.shuffle(self.weights)
        distinct = {w[6]: w[1:3] for w in self.weights if w[0] == "large"}
        self.large_shapes = list(distinct.values())
        ells, ns, partitions_only = MODULE_SETS[WORKLOADS[workload]]
        self.partitions = ([(ell, lams) for ell in ells for n in ns
                            for lams in multipartitions(ell, n)] if partitions_only else None)
        self.ells, self.ns = ells, ns
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.done = {"modules": 0, "small": 0, "large": 0, "reject": 0}
        self.boxes = 0

    # -- the program's share of preparing inputs (timed as setup_s) ---------

    def setup(self, hm):
        if self.partitions is not None:
            shapes = [hm.partition_shape(ell, [list(lam) for lam in lams])
                      for ell, lams in self.partitions]
        else:
            shapes = [s for ell in self.ells for n in self.ns
                      for s in hm.enumerate_shapes(ell, n, n)]
        for ell, comps in self.large_shapes:
            hm.shape_from_json(shape_json(ell, comps))
        catalogue = [s for ell, n in CONTROL_CATALOGUES for s in hm.enumerate_shapes(ell, n, n)]
        return shapes, catalogue

    # -- expected values, from the oracles only -----------------------------

    def expect(self, hm, prepared) -> tuple[list, list]:
        """Per shape (shape, components, ell, expected dimension), after
        checking that the program's shape list is the right one; per control
        (shape, shape, expected commutant dimension)."""
        shapes, catalogue = prepared
        comps = [components_from_json(hm.shape_to_json(s)) for s in shapes]
        keys = [normal_form(s.ell, c) for s, c in zip(shapes, comps)]
        if self.partitions is not None:
            want = [partitions_key(ell, lams) for ell, lams in self.partitions]
            dims = [hook_count(lams) for _, lams in self.partitions]
            if keys != want:
                self.refuse("partition_shape", "built other shapes than asked for")
        else:
            want = {key for ell in self.ells for n in self.ns for key in corpus(ell, n)}
            if len(set(keys)) != len(keys) or set(keys) != want:
                self.refuse("enumerate_shapes", "differs from the brute-force corpus")
            dims = [filling_count(c) for c in comps]
        out = [(s, c, s.ell, d) for s, c, d in zip(shapes, comps, dims)]
        self.rng.shuffle(out)
        found = {normal_form(s.ell, components_from_json(hm.shape_to_json(s))): s
                 for s in catalogue}
        controls = [(found.get(partitions_key(ell, p1, anchored=True)),
                     found.get(partitions_key(ell, p2, anchored=True)), want)
                    for ell, p1, p2, want in CONTROLS]
        return out, controls

    # -- one round -----------------------------------------------------------

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"failed: {what}: {exc!r}", file=sys.stderr)

    def refuse(self, what: str, reason: str) -> None:
        self.wrong += 1
        print(f"wrong: {what}: {reason}", file=sys.stderr)

    def round(self, hm, clock: Clock, expected: tuple[list, list]) -> None:
        modules, controls = expected
        for shape, comps, ell, dim in modules:
            self.attempted += 1
            start = perf_counter()
            try:
                module = hm.build_module(shape)
                relations = hm.verify_relations(module)
                intertwiners = hm.verify_intertwiners(module)
                commutant = hm.commutant_dimension(module)
                character = hm.central_character(module)
                jm = hm.jm_consistency(module) if hm.is_partition_shape(shape) else None
            except Exception as exc:  # noqa: BLE001 - any error fails the operation
                self.fail(f"module {hm.shape_to_json(shape)}", exc)
                continue
            finally:
                clock.add("modules", perf_counter() - start)
                clock.tick()
            reason = (
                "relation fails" if not relations.ok else
                "intertwiner fails" if not intertwiners.ok else
                f"commutant dimension {commutant}" if commutant != 1 else
                f"dimension {module.dim}, expected {dim}" if module.dim != dim else
                "Jucys-Murphy fails" if jm is not None and not jm.ok else
                "partition shape without JM check" if jm is None and self.partitions else
                check_u_character(ell, comps, [x.to_json() for x in character[:shape.n]]))
            if reason:
                self.refuse(f"module {hm.shape_to_json(shape)}", reason)
            else:
                self.done["modules"] += 1
        for s1, s2, want in controls:
            self.attempted += 1
            if s1 is None or s2 is None:
                self.fail("control", LookupError("shape missing from its catalogue"))
                continue
            what = f"control {hm.shape_to_json(s1)} + {hm.shape_to_json(s2)}"
            try:
                got = hm.commutant_dimension(hm.direct_sum(hm.build_module(s1),
                                                           hm.build_module(s2)))
            except Exception as exc:  # noqa: BLE001
                self.fail(what, exc)
                continue
            if got != want:
                self.fail(what, ValueError(f"commutant {got}, expected {want}"))
        for band, ell, comps, a, b, text, key in self.weights:
            self.attempted += 1
            start = perf_counter()
            try:
                weight, wl = hm.weight_from_json(json.loads(text))
                violation = hm.check_weight_condition(weight, wl)
                if band == "reject":
                    out = None if violation is None else violation.to_json()
                else:
                    out = violation
                    if violation is None:
                        out = hm.tableau_to_json(hm.reconstruct(weight, wl)[1])
            except Exception as exc:  # noqa: BLE001
                self.fail(f"weight {text}", exc)
                continue
            finally:
                clock.add(band, perf_counter() - start)
                clock.tick()
            if band == "reject":
                if out is None:
                    self.fail(f"weight {text}", ValueError("violating weight accepted"))
                    continue
                reason = check_witness(out, a, b, ell)
            elif isinstance(out, dict):
                reason = check_tableau(out, a, b, ell) or (
                    None if normal_form(ell, components_from_json(out)) == key
                    else "reconstructed another shape")
            else:
                reason = f"tableau weight rejected: {out}"
            if reason:
                self.refuse(f"weight {text}", reason)
            else:
                self.done[band] += 1
                if band == "large":
                    self.boxes += len(a)


def settle() -> None:
    """Move everything allocated so far (inputs, expected values, the
    package) out of the collector's sight, so that collections during the
    rounds cost what the library's own garbage costs."""
    gc.collect()
    gc.freeze()


def setup_once(run: Run, clock: Clock, tracer: Tracer | None = None):
    """Cold import plus set-up.  Returns heckemod, its caches (taken before
    any tracing wraps them), the prepared inputs, and the normalised and raw
    seconds."""
    clock.close()
    start = perf_counter()
    hm = import_heckemod()
    caches = package_caches(hm)
    if tracer is not None:
        tracer.install(hm)
    prepared = run.setup(hm)
    took = perf_counter() - start
    return hm, caches, prepared, took * clock.close(), took


def rates(run: Run, seconds: dict) -> dict:
    return {"modules_per_s": run.done["modules"] / seconds["modules"],
            "weights_per_s": run.done["small"] / seconds["small"],
            "boxes_per_s": run.boxes / seconds["large"],
            "rejects_per_s": run.done["reject"] / seconds["reject"]}


UNITS = {"setup_s": "s", "modules_per_s": "1/s", "weights_per_s": "1/s",
         "boxes_per_s": "1/s", "rejects_per_s": "1/s", "peak_rss_mb": "MB"}


def measure(run: Run, seconds: float) -> dict:
    clock = Clock()
    samples = []
    for _ in range(SETUPS):
        hm, caches, prepared, norm, raw = setup_once(run, clock)
        samples.append((norm, raw))
    expected = run.expect(hm, prepared)
    settle()
    start = perf_counter()
    rounds = 0
    while True:
        for cache in caches:
            cache.cache_clear()
        run.round(hm, clock, expected)
        clock.close()
        rounds += 1
        if perf_counter() - start >= seconds:
            break
    metrics = {"setup_s": statistics.median(n for n, _ in samples),
               **rates(run, clock.norm),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    raw = {"setup_s": statistics.median(r for _, r in samples), **rates(run, clock.raw),
           "rounds": rounds, "reference_median_s": statistics.median(clock.blocks),
           "reference_blocks": len(clock.blocks)}
    print(json.dumps({"raw": raw}))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def one_pass(run: Run, tracer: Tracer | None = None) -> tuple[float, float]:
    """Set-up and one round; returns their normalised and raw seconds."""
    clock = Clock()
    hm, caches, prepared, norm, raw = setup_once(run, clock, tracer)
    if tracer is not None:
        tracer.active = False
    expected = run.expect(hm, prepared)
    for cache in caches:
        cache.cache_clear()
    if tracer is not None:
        tracer.active = True
    settle()
    run.round(hm, clock, expected)
    clock.close()
    return norm + sum(clock.norm.values()), raw + sum(clock.raw.values())


def measure_traced(run: Run, workload: str, seed: int) -> dict:
    plain, _ = one_pass(run)
    tracer = Tracer()
    traced, raw = one_pass(run, tracer)
    metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
               for k, v in tracer.metrics(traced / raw).items()}
    metrics["trace.overhead"] = {"value": traced / plain - 1, "unit": "ratio"}
    metrics["trace.spans"] = {"value": len(tracer.spans) + tracer.dropped, "unit": "count"}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="heckemod benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    try:
        import_heckemod()
    except ImportError as exc:
        print(f"cannot import heckemod from {SRC}: {exc}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics = measure_traced(run, args.workload, args.seed)
    else:
        metrics = measure(run, args.seconds)
    print(json.dumps({"correct": run.wrong == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
