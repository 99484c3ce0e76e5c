"""Spans around the program's layers, recorded from outside the program.

`Tracer.install` replaces each target function with a wrapper in every
`bisteklov` module namespace that holds it, so calls made through names
imported with `from ... import` are traced too.  A wrapper records a span
(layer, span id, parent span, job id, start, end and up to three counts) only
while a job is active in its thread; pool threads started by `parallel_map`
inherit the job and take the pool span as parent, so their work is attributed
to the scan that started them.  Spans are kept in memory and turned into
per-job layer metrics, and optionally saved, when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from array import array
from contextlib import contextmanager

FIELDS = 9  # name, id, parent, job, start, end, count1, count2, count3


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _assemble_flop(args, kwargs, result):
    # nominal multiply-adds of the three contractions: Hessian (3 channels) and
    # gradient (2 channels) over the interior rule, values over the boundary rule
    nb = _arg(args, kwargs, 2, "basis").size
    n_int = _arg(args, kwargs, 3, "n_r", 32) * _arg(args, kwargs, 4, "n_theta", 256)
    n_bnd = _arg(args, kwargs, 5, "n_boundary", 512)
    return 2.0 * nb * nb * (5 * n_int + n_bnd), nb, 0


# (module, function, counter).  A counter maps (args, kwargs, result) to the
# span's counts.  The last group is traced only so that the CLI's own time
# (cli.run minus every traced call under it) excludes library work.
TARGETS = (
    ("special_functions", "ultraspherical_i_tail", lambda a, k, r: (r[0].size, 0, 0)),
    ("special_functions", "ultraspherical_i", None),
    ("ball_spectrum", "eigenvalue_of_order", None),
    ("ball_spectrum", "sorted_spectrum", None),
    ("geometry", "interior_quadrature", lambda a, k, r: (r[1].size, 0, 0)),
    ("geometry", "boundary_geometry", lambda a, k, r: (r.weights.size, 0, 0)),
    ("steklov_solver", "_eval_all",
     lambda a, k, r: (r[0].size, r[0].nbytes + r[1].nbytes + r[2].nbytes, 0)),
    ("steklov_solver", "assemble", _assemble_flop),
    ("steklov_solver", "solve",
     lambda a, k, r: (r.diagnostics.filtered_dimension, r.diagnostics.basis_size, 0)),
    ("steklov_solver", "eigenfunction_boundary_data", lambda a, k, r: (r.values.size, 0, 0)),
    ("shape_calculus", "realize_perturbation", None),
    ("shape_calculus", "fd_derivative", None),
    ("iso_experiments", "lambda2_of", None),
    ("_util", "parallel_map", lambda a, k, r: (len(r), 0, 0)),
    ("concentration", "_mode_matrices", lambda a, k, r: (r[0].shape[0], 0, 0)),
    # eigenvalues returned, pencil dimension (all of it is computed), and the
    # multiplicity merged_spectrum gives them (1 for the deflated k = 0 mode)
    ("concentration", "_solve_pencil",
     lambda a, k, r: (len(r), a[0].shape[0], 1 if _arg(a, k, 3, "deflate") is not None else 2)),
    ("concentration", "merged_spectrum", lambda a, k, r: (len(r), 0, 0)),
    ("cli", "run", lambda a, k, r: (r, 0, 0)),
    ("steklov_solver", "make_trial_basis", None),
    ("shape_calculus", "hadamard_derivative", None),
    ("shape_calculus", "criticality_residual", None),
    ("concentration", "convergence_sweep", None),
    ("iso_experiments", "iso_scan", None),
)

# name -> unit, for every per-layer metric `layer_metrics` returns
LAYER_METRICS = {
    "special_functions.tail_ms": "ms",
    "special_functions.tail_points": "count",
    "special_functions.scalar_ms": "ms",
    "special_functions.scalar_calls": "count",
    "ball_spectrum.self_ms": "ms",
    "ball_spectrum.orders": "count",
    "steklov_solver.basis_eval_ms": "ms",
    "steklov_solver.basis_eval_fn_points": "count",
    "steklov_solver.eval_bytes": "B",
    "steklov_solver.assemble_self_ms": "ms",
    "steklov_solver.contraction_flop": "flop",
    "geometry.quadrature_ms": "ms",
    "geometry.interior_points": "count",
    "steklov_solver.solve_ms": "ms",
    "steklov_solver.kept_frac": "ratio",
    "steklov_solver.traces_ms": "ms",
    "shape_calculus.realize_ms": "ms",
    "shape_calculus.fd_solves": "count",
    "iso_experiments.pool_stretch": "ratio",
    "concentration.pencil_ms": "ms",
    "concentration.pencil_useful_frac": "ratio",
    "concentration.mode_matrices_ms": "ms",
    "concentration.plate_dofs": "count",
    "concentration.merged_useful_frac": "ratio",
    "cli.self_ms": "ms",
    "cli.exit1": "ratio",
    "cli.exit2": "ratio",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("d")
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def job(self, job_id: int):
        """Attribute spans opened in this thread to job_id."""
        local = self._local
        local.job, local.parent = job_id, 0
        try:
            yield
        finally:
            local.job = None

    def _wrap(self, name: str, fn, counter):
        name_id = float(len(self.names))
        self.names.append(name)
        local, ids, spans = self._local, self._ids, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            job = getattr(local, "job", None)
            if job is None:
                return fn(*args, **kwargs)
            parent = local.parent
            span = next(ids)
            local.parent = span
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                local.parent = parent
                counts = (0, 0, 0) if counter is None or result is None else counter(args, kwargs, result)
                # one C-level extend per span keeps records whole across threads
                spans.extend((name_id, span, parent, job, start, end, *counts))

        return traced

    def _pool_wrapper(self, name: str, fn, counter):
        local = self._local

        def map_in_span(task, items):
            # runs inside the traced wrapper, so local.parent is the pool span
            job, span = getattr(local, "job", None), getattr(local, "parent", 0)

            def run_task(item):
                saved = (getattr(local, "job", None), getattr(local, "parent", 0))
                local.job, local.parent = job, span
                try:
                    return task(item)
                finally:
                    local.job, local.parent = saved

            return fn(run_task, items)

        return self._wrap(name, map_in_span, counter)

    def install(self) -> None:
        """Wrap every TARGETS function in each loaded bisteklov module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "bisteklov" or n.startswith("bisteklov.")]
        for module_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[f"bisteklov.{module_name}"], fn_name)
            name = f"{module_name}.{fn_name}"
            if fn_name == "parallel_map":
                wrapper = self._pool_wrapper(name, original, counter)
            else:
                wrapper = self._wrap(name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def records(self):
        """Spans as a (n, 9) float array; columns as in FIELDS."""
        import numpy as np

        return np.frombuffer(self.spans, dtype=float).reshape(-1, FIELDS).copy()

    def save(self, path) -> None:
        import numpy as np

        np.savez(path, spans=self.records(), names=np.array(self.names))

    def layer_metrics(self, n_jobs: int) -> dict[str, float]:
        """Per-job layer metrics (LAYER_METRICS) over every span recorded."""
        import numpy as np

        rec = self.records()
        name = rec[:, 0].astype(int)
        sid = rec[:, 1].astype(np.int64).tolist()
        parent = rec[:, 2].astype(np.int64).tolist()
        start, end = rec[:, 4], rec[:, 5]
        row_of = {s: i for i, s in enumerate(sid)}
        children: dict[int, list[int]] = {}
        for i, p in enumerate(parent):
            if p:
                children.setdefault(p, []).append(i)

        # self time: duration minus the union of the child intervals, which
        # overlap where pool threads run side by side
        self_t = end - start
        for p, rows in children.items():
            i = row_of[p]
            spans = sorted((max(start[r], start[i]), min(end[r], end[i])) for r in rows)
            covered, lo, hi = 0.0, spans[0][0], spans[0][1]
            for s, e in spans[1:]:
                if s > hi:
                    covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            self_t[i] -= covered + (hi - lo)

        ids = {n: float(k) for k, n in enumerate(self.names)}

        def rows(*names):
            return np.isin(rec[:, 0], [ids[n] for n in names])

        def per_job(x) -> float:
            return float(x) / n_jobs

        def self_ms(*names) -> float:
            return per_job(self_t[rows(*names)].sum() * 1e3)

        def ratio(num, den) -> float:
            return float(num) / float(den) if den else 0.0

        tail = rows("special_functions.ultraspherical_i_tail")
        scalar = rows("special_functions.ultraspherical_i")
        eval_all = rows("steklov_solver._eval_all")
        assemble = rows("steklov_solver.assemble")
        solve = rows("steklov_solver.solve")
        pencil = rows("concentration._solve_pencil")
        merged = rows("concentration.merged_spectrum")
        cli_run = rows("cli.run")

        fd_name = ids["shape_calculus.fd_derivative"]
        fd_solves = 0
        for i in np.flatnonzero(solve):
            p = parent[i]
            while p:
                if rec[row_of[p], 0] == fd_name:
                    fd_solves += 1
                    break
                p = parent[row_of[p]]

        # in-pool lambda2_of time over the same scan's sequential (bound) solve
        lam2 = ids["iso_experiments.lambda2_of"]
        stretches = []
        for i in np.flatnonzero(rows("_util.parallel_map")):
            in_pool = [end[r] - start[r] for r in children.get(sid[i], ()) if name[r] == lam2]
            before = [end[r] - start[r] for r in children.get(parent[i], ()) if name[r] == lam2]
            if in_pool and before:
                stretches.append(np.mean(in_pool) / np.mean(before))

        merged_ids = set(rec[merged, 1].tolist())
        under_merged = np.array([parent[i] in merged_ids for i in range(len(rec))], dtype=bool)
        pencil_merged = pencil & under_merged

        return {
            "special_functions.tail_ms": self_ms("special_functions.ultraspherical_i_tail"),
            "special_functions.tail_points": per_job(rec[tail, 6].sum()),
            "special_functions.scalar_ms": self_ms("special_functions.ultraspherical_i"),
            "special_functions.scalar_calls": per_job(scalar.sum()),
            "ball_spectrum.self_ms": self_ms("ball_spectrum.eigenvalue_of_order", "ball_spectrum.sorted_spectrum"),
            "ball_spectrum.orders": per_job(rows("ball_spectrum.eigenvalue_of_order").sum()),
            "steklov_solver.basis_eval_ms": self_ms("steklov_solver._eval_all"),
            "steklov_solver.basis_eval_fn_points": per_job(rec[eval_all, 6].sum()),
            "steklov_solver.eval_bytes": per_job(rec[eval_all, 7].sum()),
            "steklov_solver.assemble_self_ms": self_ms("steklov_solver.assemble"),
            "steklov_solver.contraction_flop": per_job(rec[assemble, 6].sum()),
            "geometry.quadrature_ms": self_ms("geometry.interior_quadrature", "geometry.boundary_geometry"),
            "geometry.interior_points": per_job(rec[rows("geometry.interior_quadrature"), 6].sum()),
            "steklov_solver.solve_ms": self_ms("steklov_solver.solve"),
            "steklov_solver.kept_frac": ratio(rec[solve, 6].sum(), rec[solve, 7].sum()),
            "steklov_solver.traces_ms": self_ms("steklov_solver.eigenfunction_boundary_data"),
            "shape_calculus.realize_ms": self_ms("shape_calculus.realize_perturbation"),
            "shape_calculus.fd_solves": per_job(fd_solves),
            "iso_experiments.pool_stretch": float(np.mean(stretches)) if stretches else 0.0,
            "concentration.pencil_ms": self_ms("concentration._solve_pencil"),
            "concentration.pencil_useful_frac": ratio(rec[pencil, 6].sum(), rec[pencil, 7].sum()),
            "concentration.mode_matrices_ms": self_ms("concentration._mode_matrices"),
            "concentration.plate_dofs": per_job(rec[rows("concentration._mode_matrices"), 6].sum()),
            "concentration.merged_useful_frac": ratio(
                rec[merged, 6].sum(), (rec[pencil_merged, 6] * rec[pencil_merged, 8]).sum()),
            "cli.self_ms": self_ms("cli.run"),
            "cli.exit1": per_job((rec[cli_run, 6] == 1).sum()),
            "cli.exit2": per_job((rec[cli_run, 6] == 2).sum()),
        }
