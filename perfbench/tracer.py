"""Outside-in tracer for nomalab.

install() replaces each traced function with a wrapper under every name
a nomalab module, or the package itself, binds it to, so a call made
through `from .kernels import cell_probability_closed` is seen as well
as one through the defining module. uninstall() puts the originals back.
Each call becomes a span (name, parent, start, end) kept in memory; self
time is the span's duration minus the time its child spans cover.

The span stack is shared by all threads. That is correct only while one
thread runs traced code at a time, as with `workers: 1`, where the pool
thread runs a batch while the caller waits on it; traced jobs must not
use more workers.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Functions traced, by module. Helpers called several times per cell
# (q_approx, q_term_mixture, erlang_exp_average, ExpMixture methods)
# are left inside their callers' self time: one span costs about a
# microsecond, more than the helper itself.
TRACED = {
    "constellation": ("build_rect_qam", "magnitude_classes", "hamming_table"),
    "channel": ("generator", "sample_channel", "sample_noise", "erlang_pdf"),
    "detectors": ("superimpose", "mrc_sic_detect", "jmld_detect",
                  "joint_symbol_tuples", "sic_detect_batch",
                  "jmld_detect_batch"),
    "kernels": ("erlang_fade_average", "erlang_fade_quadrature",
                "qpsk_sep_triplet", "cell_probability_closed",
                "cell_probability_quadrature"),
    "analytic": ("effective_noise_variance", "sep_table_user",
                 "conditional_ber_user", "class_assignments", "ber_user_qam",
                 "ber_user_qpsk", "ber_user", "sum_ber"),
    "montecarlo": ("estimate_ber", "sweep", "compare_analytic"),
    "poweralloc": ("sum_ber_db_cost", "optimize_powers"),
    "config": ("parse_config", "load_config", "build_model", "sweep_grid",
               "to_dict"),
    "cli": ("main",),
}


def _batch_size(args, kwargs):
    y = kwargs["y"] if "y" in kwargs else args[1]
    return int(y.shape[1])


# Per-span attributes read from arguments or results, for work counters.
ATTRS = {
    "analytic.ber_user_qam":
        lambda a, kw, r: kw.get("mode", a[2] if len(a) > 2 else "exact"),
    "detectors.sic_detect_batch": lambda a, kw, r: _batch_size(a, kw),
    "detectors.jmld_detect_batch": lambda a, kw, r: _batch_size(a, kw),
    "detectors.joint_symbol_tuples": lambda a, kw, r: len(r),
}


DETECTORS = {"detectors.sic_detect_batch": "sic",
             "detectors.jmld_detect_batch": "jmld"}

PACKAGE = "nomalab"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, parent, start_ns, end_ns, self_ns, attr)
        self._stack: list[list] = []   # [span index, child ns]
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attr_of = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            spans.append(None)
            result = done = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                attr = attr_of(args, kwargs, result) if attr_of and done else None
                spans[idx] = (name, parent, t0, t1, t1 - t0 - frame[1], attr)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for layer, names in TRACED.items():
            owner = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(owner, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> list[tuple]:
        """Hand over the finished spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_metrics(spans: list[tuple], speeds: list[float]) -> dict[str, float]:
    """Work counts and self times of one traced pass, by metric name.

    Each root span is one job; speeds[i] scales the times of the spans
    under the i-th root to the nominal machine speed (see clock.py)."""
    calls: dict[str, int] = {}
    self_ns: dict[str, float] = {}
    scale = []
    root = -1
    for name, parent, _t0, _t1, own, _attr in spans:
        root += parent < 0
        scale.append(speeds[root])
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own * scale[-1]
    if root + 1 != len(speeds):
        raise ValueError(f"{root + 1} root spans for {len(speeds)} jobs")

    def count(name):
        return calls.get(name, 0)

    def self_s(name):
        return self_ns.get(name, 0) * 1e-9

    m: dict[str, float] = {}
    for name in ("kernels.cell_probability_closed", "kernels.erlang_fade_average",
                 "kernels.qpsk_sep_triplet", "analytic.ber_user",
                 "analytic.sep_table_user", "analytic.conditional_ber_user",
                 "montecarlo.estimate_ber", "channel.generator",
                 "constellation.hamming_table"):
        m[f"{name}.calls"] = count(name)
        m[f"{name}.self_s"] = self_s(name)

    routes = {"qpsk": count("analytic.ber_user_qpsk"), "exact": 0, "approx": 0}
    for s in spans:
        if s[0] == "analytic.ber_user_qam" and s[5] in routes:
            routes[s[5]] += 1
    for route, n in routes.items():
        m[f"analytic.route.{route}_calls"] = n
    walked = routes["exact"] + routes["approx"]
    m["analytic.sep_tables_per_stage_point"] = (
        count("analytic.sep_table_user") / walked if walked else 0.0)

    sums = [(s[3] - s[2]) * 1e-6 * f for s, f in zip(spans, scale)
            if s[0] == "analytic.sum_ber"]
    m["analytic.sum_ber.calls"] = len(sums)
    m["analytic.sum_ber.p50_ms"] = statistics.median(sums) if sums else 0.0

    m["poweralloc.optimize_powers.self_s"] = self_s("poweralloc.optimize_powers")
    m["poweralloc.cost_evals"] = count("poweralloc.sum_ber_db_cost")

    detected = {"sic": 0, "jmld": 0}
    hypotheses = 0
    for s in spans:
        if s[5] is None:
            continue
        if s[0] in DETECTORS:
            detected[DETECTORS[s[0]]] += s[5]
        elif s[0] == "detectors.joint_symbol_tuples" and s[1] >= 0:
            parent = spans[s[1]]
            if parent[0] == "detectors.jmld_detect_batch" and parent[5]:
                hypotheses += s[5] * parent[5]
    m["montecarlo.batches"] = (count("detectors.sic_detect_batch")
                               + count("detectors.jmld_detect_batch"))
    for det in ("sic", "jmld"):
        name = f"detectors.{det}_detect_batch"
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ns_per_symbol"] = (
            self_ns.get(name, 0) / detected[det] if detected[det] else 0.0)
    m["detectors.jmld_hypotheses_per_symbol"] = (
        hypotheses / detected["jmld"] if detected["jmld"] else 0.0)

    m["config.load_config.self_s"] = self_s("config.load_config")
    m["config.build_model.self_s"] = self_s("config.build_model")
    m["cli.main.self_s"] = self_s("cli.main")
    m["tracer.spans"] = len(spans)
    return m


def write_spans(path, spans: list[tuple]) -> None:
    """One CSV line per span: id, parent, name, start and end in ns."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for idx, s in enumerate(spans):
            fh.write(f"{idx},{s[1]},{s[0]},{s[2]},{s[3]}\n")
