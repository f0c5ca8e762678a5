"""Spans and counters recorded around calls into ``thbox``'s public functions.

:func:`install` replaces the public functions and methods listed in
:data:`SPANS` with wrappers that record one span per call (name, start,
end, parent, run id) and the counters named in the benchmark doc.  The
wrappers live only here and are installed only in a traced worker; the
package itself is unchanged.  :func:`layer_metrics` turns a finished
:class:`Tracer` into the per-layer metrics.
"""

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

#: Modules whose self time is reported as one layer each.
LAYERS = ("hierarchy", "qbox", "bezier", "adaptive", "numerics", "derham", "field", "cli")


class Tracer:
    """In-memory span recorder with per-name totals and self times.

    A span's self time is its duration minus the time covered by its
    child spans; totals and self times are accumulated as spans end, so
    the span list is only needed for the written trace.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = Counter()
        self.counts = Counter()

    def begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append([sid, 0])
        return sid

    def end(self, sid):
        end = time.perf_counter_ns()
        top, child_ns = self._stack.pop()
        if top != sid:
            raise RuntimeError("span %d ended out of order" % sid)
        span = self.spans[sid]
        span[2] = end
        duration = end - span[1]
        name = span[0]
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, kwargs, out)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def field(self, f):
        """A target field that records its calls and evaluated points."""

        def traced(pts):
            self.counts["field.calls"] += 1
            self.counts["field.points"] += len(pts)
            with self.span("field"):
                return f(pts)

        return traced

    def total(self, name):
        return self.total_ns[name] * 1e-9

    def self_time(self, name):
        return self.self_ns[name] * 1e-9

    def dump(self):
        """The spans as a JSON-ready dict of columns (times in ns)."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "run_id": self.run_id,
            "names": names,
            "columns": ["id", "name", "start_ns", "end_ns", "parent"],
            "spans": [
                [i, index[s[0]], s[1], s[2], s[3]] for i, s in enumerate(self.spans)
            ],
        }


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_build(tracer):
    def after(args, kwargs, out):
        tracer.counts["hierarchy.build_elems"] += args[0].total_active_elements

    return after


def _count_refine(tracer):
    def after(args, kwargs, out):
        before = _arg(args, kwargs, 0, "space").hierarchy.refined
        after_ = out.hierarchy.refined
        added = 0
        for lv, boxes in enumerate(after_):
            old = before[lv] if lv < len(before) else frozenset()
            added += len(set(boxes) - set(old))
        tracer.counts["qbox.boxes_marked"] += len(_arg(args, kwargs, 1, "marked"))
        tracer.counts["qbox.boxes_refined"] += added

    return after


def _count_coarsen(tracer):
    def after(args, kwargs, out):
        report = out[1]
        tracer.counts["qbox.coarsen_marked"] += len(_arg(args, kwargs, 1, "marked"))
        tracer.counts["qbox.coarsen_reactivated"] += len(report.reactivated)
        tracer.counts["qbox.coarsen_skipped"] += len(report.skipped)

    return after


def _count_partition(tracer):
    def after(args, kwargs, out):
        tracer.counts["bezier.local_solves"] += len(args[0].members)

    return after


def _count_project(tracer):
    def after(args, kwargs, out):
        space = _arg(args, kwargs, 0, "space")
        tracer.counts["bezier.project_elems"] += space.total_active_elements

    return after


def _count_nnz(tracer):
    def after(args, kwargs, out):
        tracer.counts["numerics.assemble_nnz"] += out.nnz

    return after


def _count_dense(tracer):
    def after(args, kwargs, out):
        cs = _arg(args, kwargs, 0, "cs")
        nelem = cs.v0.total_active_elements
        npts = (max(cs.degree) + 1) ** cs.dim
        # shapes of the sampled matrices exactness_report builds: the image
        # of each slot under its map (rows of the next slot) and the slot-1
        # basis matrix
        shapes = [
            (len(cs.slots[k + 1]) * nelem * npts, cs.dims[k]) for k in range(cs.dim)
        ]
        shapes.append((len(cs.slots[1]) * nelem * npts, cs.dims[1]))
        largest = max(r * c for r, c in shapes) * 8
        tracer.counts["derham.dense_matrix_bytes"] = max(
            tracer.counts["derham.dense_matrix_bytes"], largest
        )

    return after


#: (module, attribute, span name, counter factory) of every wrapped call;
#: attributes with a dot are methods of a class of that module.
SPANS = (
    ("hierarchy", "ThbSpace.__init__", "hierarchy.build", _count_build),
    ("hierarchy", "ThbSpace.element_values", "hierarchy.element_values", None),
    ("hierarchy", "admissibility_class", "hierarchy.admissibility_class", None),
    ("qbox", "refine_qboxes", "qbox.refine_qboxes", _count_refine),
    ("qbox", "coarsen_qboxes", "qbox.coarsen_qboxes", _count_coarsen),
    ("qbox", "QBoxMesh.__init__", "qbox.classify", None),
    ("qbox", "QBoxMesh.admissibility_class", "qbox.admissibility_class", None),
    ("bezier", "ProjectorPartition.__init__", "bezier.partition", _count_partition),
    ("bezier", "bezier_project", "bezier.project", _count_project),
    ("bezier", "error_report", "bezier.error_report", None),
    ("adaptive", "adapt_loop", "adaptive.loop", None),
    ("adaptive", "adapt_project", "adaptive.adapt_project", None),
    ("adaptive", "poisson_solve", "adaptive.poisson_solve", None),
    ("adaptive", "residual_estimator", "adaptive.residual_estimator", None),
    ("adaptive", "dorfler_mark", "adaptive.dorfler_mark", None),
    ("numerics", "assemble_csr", "numerics.assemble_csr", _count_nnz),
    ("numerics", "sparse_solve", "numerics.sparse_solve", None),
    ("derham", "build_complex", "derham.build_complex", None),
    ("derham", "exactness_report", "derham.exactness_report", _count_dense),
    ("cli", "random_refined_space", "cli.random_refined_space", None),
    ("cli", "mesh_svg", "cli.mesh_svg", None),
)


def install(tracer):
    """Wrap every entry of :data:`SPANS`; returns a function that undoes it.

    A module function is replaced in every ``thbox`` module that imported
    it by name, so calls from inside the package are recorded too.
    """
    undo = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "thbox" or n.startswith("thbox.")]
    for modname, attr, name, counter in SPANS:
        module = sys.modules["thbox." + modname]
        after = counter(tracer) if counter is not None else None
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(module, clsname)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, orig, after))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def uninstall():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return uninstall


def span_cost_us(calls=20000):
    """Microseconds a wrapped call adds over a plain call, measured here."""

    def noop():
        return None

    wrapped = Tracer("cost").wrap("cost", noop)
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter_ns()
    return ((t2 - t1) - (t1 - t0)) * 1e-3 / calls


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, artifact_bytes):
    """Per-layer metrics of one traced worker.

    The traced wall time is the sum of the two root spans, ``bench.setup``
    and ``bench.solve``; their own self time is the part no layer span
    covers, which gives ``trace.coverage``.
    """
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    wall_s = t("bench.setup") + t("bench.solve")
    layer_self = defaultdict(float)
    for name, ns in tracer.self_ns.items():
        layer_self[name.split(".")[0]] += ns * 1e-9
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = layer_self[layer]
        out[layer + ".share"] = ratio(layer_self[layer], wall_s)
    out.update(
        {
            "hierarchy.build_s": t("hierarchy.build"),
            "hierarchy.build_calls": n["hierarchy.build"],
            "hierarchy.build_us_per_elem": ratio(
                1e6 * t("hierarchy.build"), c["hierarchy.build_elems"]
            ),
            "hierarchy.element_values_calls": n["hierarchy.element_values"],
            "hierarchy.element_values_s": t("hierarchy.element_values"),
            "qbox.refine_self_s": s("qbox.refine_qboxes"),
            "qbox.coarsen_self_s": s("qbox.coarsen_qboxes"),
            "qbox.classify_s": t("qbox.classify"),
            "qbox.admissibility_s": t("qbox.admissibility_class")
            + t("hierarchy.admissibility_class"),
            "qbox.boxes_marked": c["qbox.boxes_marked"],
            "qbox.boxes_refined": c["qbox.boxes_refined"],
            "qbox.closure_ratio": ratio(c["qbox.boxes_refined"], c["qbox.boxes_marked"]),
            "qbox.coarsen_marked": c["qbox.coarsen_marked"],
            "qbox.coarsen_reactivated": c["qbox.coarsen_reactivated"],
            "qbox.coarsen_yield": ratio(
                c["qbox.coarsen_reactivated"], c["qbox.coarsen_marked"]
            ),
            "bezier.partition_self_s": s("bezier.partition"),
            "bezier.project_self_s": s("bezier.project"),
            "bezier.local_solves": c["bezier.local_solves"],
            "bezier.error_report_s": t("bezier.error_report"),
            "bezier.project_us_per_elem": ratio(
                1e6 * t("bezier.project"), c["bezier.project_elems"]
            ),
            "adaptive.poisson_self_s": s("adaptive.poisson_solve"),
            "adaptive.estimator_s": t("adaptive.residual_estimator"),
            "adaptive.mark_s": t("adaptive.dorfler_mark"),
            "adaptive.loop_self_s": s("adaptive.loop"),
            "numerics.sparse_solve_s": t("numerics.sparse_solve"),
            "numerics.sparse_solve_calls": n["numerics.sparse_solve"],
            "numerics.assemble_s": t("numerics.assemble_csr"),
            "numerics.assemble_nnz": c["numerics.assemble_nnz"],
            "derham.build_complex_s": t("derham.build_complex"),
            "derham.exactness_s": t("derham.exactness_report"),
            "derham.dense_matrix_mb_computed": c["derham.dense_matrix_bytes"] / 1e6,
            "field.calls": c["field.calls"],
            "field.points": c["field.points"],
            "field.points_per_call": ratio(c["field.points"], c["field.calls"]),
            "field.s": t("field"),
            "cli.emit_s": t("cli.emit"),
            "cli.artifact_bytes": artifact_bytes,
            "trace.wall_s": wall_s,
            "trace.coverage": 1.0 - ratio(layer_self["bench"], wall_s),
            "trace.spans": len(tracer.spans),
            "trace.span_cost_us": span_cost_us(),
        }
    )
    return out


def exact_counts(tracer):
    """The counters that must repeat exactly between runs of one input."""
    out = {k: v for k, v in sorted(tracer.counts.items())}
    for name, calls in sorted(tracer.calls.items()):
        out["calls." + name] = calls
    return out
