//! Per-layer measurement from outside the crates: timed calls into public
//! functions, self times of `tvm_obs` spans, and probes that re-run one
//! layer's public entry point on the workload's models.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tvm_graph::Graph;
use tvm_ir::Interp;
use tvm_obs::SpanEvent;
use tvm_runtime::{GraphExecutor, Module, NDArray};
use tvm_sim::Target;

/// Root span of the set-up phase.
pub const SETUP: &str = "bench.setup";
/// Root span of the timed phase.
pub const TIMED: &str = "bench.timed";
/// Root span of the layer probes (not part of the traced wall time).
pub const PROBE: &str = "bench.probe";

/// Runs `f` under a span named `name` (recorded only while tracing is on)
/// and returns its result with its wall time in seconds.
pub fn timed<R>(name: &str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = tvm_obs::span(name);
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The layer (crate) a span belongs to, by its name; `None` for names this
/// table does not know, which take their parent's layer.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "models.graph" => "models",
        "topi.tasks" => "topi",
        "tune" | "measure" | "fit" | "fit_tree" | "propose_sa" | "db.journal" | "db.load" => {
            "autotune"
        }
        "lower"
        | "effective_bodies"
        | "infer_bounds"
        | "emit"
        | "emit_stage"
        | "hoist_shared_allocs"
        | "lower_vthreads"
        | "lower_dae"
        | "simplify"
        | "validate" => "te",
        "sim.estimate" => "sim",
        "core.build" => "core",
        "graph.fuse" | "graph.plan_memory" | "graph.verify" => "graph",
        "run_op" | "ir.replay" => "ir",
        SETUP | TIMED | PROBE => "other",
        n if n.starts_with("runtime.") => "runtime",
        n if n.starts_with("serve.") => "serve",
        _ => return None,
    })
}

/// Self times from one traced repeat.
#[derive(Default)]
pub struct SpanTable {
    /// Self seconds per span name, over every thread.
    pub self_by_name: BTreeMap<String, f64>,
    /// Inclusive seconds per span name, over every thread.
    pub total_by_name: BTreeMap<String, f64>,
    /// Self seconds per layer over the set-up and timed roots of the
    /// recording thread; they sum to `wall_s`.
    pub self_by_layer: BTreeMap<&'static str, f64>,
    /// Self seconds per layer over every thread: the time the layer was
    /// busy, helper threads included.
    pub busy_by_layer: BTreeMap<&'static str, f64>,
    /// Summed duration of the set-up and timed roots.
    pub wall_s: f64,
}

/// Builds the self-time table. A span's self time is its duration minus
/// the durations of its direct children on the same thread. The per-layer
/// table covers only the thread that opened the [`SETUP`] and [`TIMED`]
/// roots, whose spans partition that thread's wall time exactly; work on
/// helper threads is inside some span of that thread already.
pub fn span_table(events: &[SpanEvent]) -> SpanTable {
    let main_tid = events
        .iter()
        .find(|e| e.path == SETUP || e.path == TIMED)
        .map(|e| e.tid);
    let mut table = SpanTable::default();
    let mut by_tid: BTreeMap<usize, Vec<&SpanEvent>> = BTreeMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for (tid, mut evs) in by_tid {
        // Parents start no later than their children and last longer.
        evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns), e.seq));
        let mut self_ns: Vec<i128> = evs.iter().map(|e| e.dur_ns as i128).collect();
        let mut layer: Vec<&'static str> = vec!["other"; evs.len()];
        let mut in_table: Vec<bool> = vec![false; evs.len()];
        let mut open: Vec<usize> = Vec::new();
        for i in 0..evs.len() {
            let e = evs[i];
            while let Some(&p) = open.last() {
                let pe = evs[p];
                if e.start_ns >= pe.start_ns + pe.dur_ns || !e.path.starts_with(&pe.path) {
                    open.pop();
                } else {
                    break;
                }
            }
            let parent = open.last().copied();
            if let Some(p) = parent {
                self_ns[p] -= e.dur_ns as i128;
            }
            layer[i] = layer_of(e.name())
                .or_else(|| parent.map(|p| layer[p]))
                .unwrap_or("other");
            in_table[i] = Some(tid) == main_tid
                && match parent {
                    Some(p) => in_table[p],
                    None => e.path == SETUP || e.path == TIMED,
                };
            if parent.is_none() && in_table[i] {
                table.wall_s += e.dur_ns as f64 * 1e-9;
            }
            open.push(i);
        }
        for (i, e) in evs.iter().enumerate() {
            let s = self_ns[i] as f64 * 1e-9;
            *table.self_by_name.entry(e.name().to_string()).or_default() += s;
            *table.total_by_name.entry(e.name().to_string()).or_default() += e.dur_ns as f64 * 1e-9;
            *table.busy_by_layer.entry(layer[i]).or_default() += s;
            if in_table[i] {
                *table.self_by_layer.entry(layer[i]).or_default() += s;
            }
        }
    }
    table
}

/// One compiled model a workload uses, for the layer probes.
pub struct Built<'a> {
    /// Source graph.
    pub graph: &'a Graph,
    /// Compiled module.
    pub module: &'a Arc<Module>,
    /// Target it was compiled for.
    pub target: &'a Target,
}

/// Re-runs single layers' public entry points on the workload's models and
/// records what they cost: graph fusion, memory planning and verification,
/// the cost model, executor construction and, with `replay_kernels`, one
/// interpreter run of every kernel. Returns per-layer metrics.
pub fn probe(models: &[Built], replay_kernels: bool) -> BTreeMap<String, f64> {
    let _root = tvm_obs::span(PROBE);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str, v: f64| *m.entry(k.to_string()).or_default() += v;
    let (mut est_s, mut est_n) = (0.0, 0usize);
    let mut exec_new_s = 0.0;
    // (stores, replay seconds) per device class.
    let mut replay = [(0u64, 0.0f64); 2];
    for b in models {
        let (fused, s) = timed("graph.fuse", || tvm_graph::fuse(b.graph, true));
        add("graph.fuse_s", s);
        add("graph.groups", fused.groups.len() as f64);
        let (_, s) = timed("graph.plan_memory", || {
            tvm_graph::plan_memory(b.graph, &fused)
        });
        add("graph.plan_memory_s", s);
        let (_, s) = timed("graph.verify", || b.module.verify());
        add("graph.verify_s", s);
        for k in &b.module.kernels {
            let (_, s) = timed("sim.estimate", || tvm_sim::estimate(&k.func, b.target));
            est_s += s;
            est_n += 1;
            if !replay_kernels {
                continue;
            }
            // Argument buffers sized from the graph; contents do not steer
            // control flow, so seeded data gives the kernel's store count.
            let mut bufs: Vec<Vec<f32>> = k
                .args
                .iter()
                .map(|a| NDArray::seeded(&b.graph.node(*a).shape, a.0 as u64).data)
                .collect();
            let mut it = Interp::new();
            let (res, s) = timed("ir.replay", || it.run_f32(&k.func, &mut bufs));
            if res.is_ok() {
                let slot = &mut replay[usize::from(b.target.is_gpu())];
                slot.0 += it.store_count();
                slot.1 += s;
            }
        }
        let module = Arc::clone(b.module);
        let (_, s) = timed("runtime.executor_new", || GraphExecutor::from_arc(module));
        exec_new_s += s;
    }
    add("sim.estimate_us", est_s * 1e6 / est_n.max(1) as f64);
    add(
        "runtime.executor_new_us",
        exec_new_s * 1e6 / models.len().max(1) as f64,
    );
    add("ir.stores", (replay[0].0 + replay[1].0) as f64);
    for (key, (stores, s)) in ["ir.ns_per_store.cpu", "ir.ns_per_store.gpu"]
        .iter()
        .zip(replay)
    {
        add(
            key,
            if stores > 0 {
                s * 1e9 / stores as f64
            } else {
                0.0
            },
        );
    }
    m
}

/// Layer metrics read from a traced repeat's span table and from the
/// process-wide lowering and interning counters, which in a fresh worker
/// process cover exactly this repeat.
pub fn span_metrics(t: &SpanTable) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let self_of = |n: &str| t.self_by_name.get(n).copied().unwrap_or(0.0);
    for (key, span) in [
        ("autotune.measure_self_s", "measure"),
        ("autotune.propose_sa_self_s", "propose_sa"),
        ("autotune.fit_self_s", "fit"),
        ("te.lower_self_s", "lower"),
        ("te.effective_bodies_self_s", "effective_bodies"),
        ("te.infer_bounds_self_s", "infer_bounds"),
        ("te.emit_self_s", "emit"),
        ("te.emit_stage_self_s", "emit_stage"),
        ("te.hoist_shared_allocs_self_s", "hoist_shared_allocs"),
        ("te.lower_vthreads_self_s", "lower_vthreads"),
        ("te.simplify_self_s", "simplify"),
        ("serve.admit_self_s", "serve.admit"),
        ("serve.flush_self_s", "serve.flush"),
        (
            "serve.execute.functional_self_s",
            "serve.execute.functional",
        ),
        ("serve.execute.pool_self_s", "serve.execute.pool"),
        ("serve.cache.build_self_s", "serve.cache.build"),
        ("serve.hedge_self_s", "serve.hedge"),
    ] {
        m.insert(key.to_string(), self_of(span));
    }
    let total_of = |n: &str| t.total_by_name.get(n).copied().unwrap_or(0.0);
    m.insert(
        "te.lower_s".into(),
        t.busy_by_layer.get("te").copied().unwrap_or(0.0),
    );
    m.insert("ir.interp_s".into(), total_of("run_op"));
    let ratio = |(hits, misses): (u64, u64)| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let plan = tvm_te::lower_stats();
    m.insert(
        "te.plan_hit_ratio".into(),
        ratio((plan.plan_hits, plan.plan_misses)),
    );
    m.insert("ir.intern_hit_ratio".into(), ratio(tvm_ir::intern_stats()));
    for (layer, s) in &t.self_by_layer {
        m.insert(format!("self_s.{layer}"), *s);
    }
    m.insert("trace.wall_s".into(), t.wall_s);
    m
}
