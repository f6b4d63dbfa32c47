//! `perfbench` — the repository benchmark: three workloads (`tune`,
//! `infer`, `serve`) with named end-to-end and per-layer metrics.
//!
//! The binary (`src/main.rs`) runs every repeat of a workload in a fresh
//! child process of itself, so the `te` plan cache, the IR intern pool and
//! the process-global `tvm_obs` registry never carry state between
//! repeats. Each repeat reports one [`Repeat`]; the parent takes medians.
//! Layers are measured only from outside: by timing calls into each
//! crate's public functions, and by reading the `tvm_obs` spans and
//! counters and the public stats structs the crates already expose.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tune|infer|serve> --seed <n> --seconds <s> --trace <0|1>
//! cargo test --manifest-path perfbench/Cargo.toml
//! ```

pub mod hostspeed;
pub mod infer;
pub mod layers;
pub mod oracle;
pub mod serve;
pub mod tune;

use std::collections::{BTreeMap, BTreeSet};

use tvm_json::Value;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["tune", "infer", "serve"];

/// Whether a metric is read from the clock or computed by a model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Wall-clock time, memory or counts of this host.
    Measured,
    /// Simulated (virtual-time or cost-model) quantities, deterministic
    /// for a given seed.
    Modelled,
}

impl Kind {
    /// Label used in the report.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modelled => "modelled",
        }
    }
}

/// One end-to-end metric.
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured or modelled.
    pub kind: Kind,
    /// Workloads the metric is defined on. On the others it reads the
    /// constant [`NOT_APPLICABLE`] and the report marks it `n/a`.
    pub workloads: &'static [&'static str],
}

/// The value an end-to-end metric reads on a workload it is not defined
/// on. It is a positive constant so ratios against a parent commit stay
/// defined; it never stands for a measurement.
pub const NOT_APPLICABLE: f64 = 1.0;

const ALL: &[&str] = &WORKLOADS;

/// Every end-to-end metric.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        kind: Kind::Measured,
        workloads: ALL,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        kind: Kind::Measured,
        workloads: ALL,
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        kind: Kind::Measured,
        workloads: ALL,
    },
    EndToEnd {
        name: "tune_trials_per_s",
        unit: "trials/s",
        kind: Kind::Measured,
        workloads: &["tune"],
    },
    EndToEnd {
        name: "model_sim_ms",
        unit: "vms",
        kind: Kind::Modelled,
        workloads: &["tune"],
    },
    EndToEnd {
        name: "infer_mmac_per_s",
        unit: "MMAC/s",
        kind: Kind::Measured,
        workloads: &["infer"],
    },
    EndToEnd {
        name: "serve_rps",
        unit: "req/s",
        kind: Kind::Measured,
        workloads: &["serve"],
    },
    EndToEnd {
        name: "serve_p50_vms",
        unit: "vms",
        kind: Kind::Modelled,
        workloads: &["serve"],
    },
    EndToEnd {
        name: "serve_p99_vms",
        unit: "vms",
        kind: Kind::Modelled,
        workloads: &["serve"],
    },
];

/// Repeats in a run of `seconds`: the run length over the workload's
/// nominal repeat length, rounded, at least one. The nominal lengths are
/// constants, so the work a run does never depends on how fast the code
/// under test is.
pub fn repeats(workload: &str, seconds: f64) -> usize {
    let nominal_s = match workload {
        "tune" => 20.0,
        "infer" => 40.0,
        _ => 20.0,
    };
    ((seconds / nominal_s).round() as usize).max(1)
}

/// The input seed of repeat `r` of a run with seed `seed`.
pub fn repeat_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(r as u64)
}

/// Every per-layer metric and its unit. A traced repeat reports each of
/// them; one that the workload's layers do not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // autotune
    ("autotune.tune_s", "s"),
    ("autotune.trials", "count"),
    ("autotune.lookups", "count"),
    ("autotune.lowerings", "count"),
    ("autotune.simulations", "count"),
    ("autotune.memo_hit_ratio", "ratio"),
    ("autotune.invalid_share", "ratio"),
    ("autotune.measure_self_s", "s"),
    ("autotune.propose_sa_self_s", "s"),
    ("autotune.fit_self_s", "s"),
    ("autotune.lock_wait_ns", "ns"),
    // te / ir lowering
    ("te.lower_s", "s"),
    ("te.lower_self_s", "s"),
    ("te.effective_bodies_self_s", "s"),
    ("te.infer_bounds_self_s", "s"),
    ("te.emit_self_s", "s"),
    ("te.emit_stage_self_s", "s"),
    ("te.hoist_shared_allocs_self_s", "s"),
    ("te.lower_vthreads_self_s", "s"),
    ("te.simplify_self_s", "s"),
    ("te.plan_hit_ratio", "ratio"),
    ("ir.intern_hit_ratio", "ratio"),
    // sim
    ("sim.estimate_us", "us"),
    // core / graph
    ("core.build_s", "s"),
    ("graph.fuse_s", "s"),
    ("graph.plan_memory_s", "s"),
    ("graph.verify_s", "s"),
    ("graph.groups", "count"),
    // runtime / ir execution
    ("runtime.run_s", "s"),
    ("ir.interp_s", "s"),
    ("runtime.overhead_s", "s"),
    ("ir.stores", "count"),
    ("ir.ns_per_store.cpu", "ns"),
    ("ir.ns_per_store.gpu", "ns"),
    ("runtime.executor_new_us", "us"),
    ("runtime.input_copy_mb", "MiB"),
    // serve
    ("serve.admit_self_s", "s"),
    ("serve.flush_self_s", "s"),
    ("serve.execute.functional_self_s", "s"),
    ("serve.execute.pool_self_s", "s"),
    ("serve.cache.build_self_s", "s"),
    ("serve.hedge_self_s", "s"),
    ("serve.batches", "count"),
    ("serve.mean_batch", "count"),
    ("serve.pad_ratio", "ratio"),
    ("serve.cold_builds", "count"),
    ("serve.cache_hits", "count"),
    ("serve.pool_retries", "count"),
    ("serve.hedges_issued", "count"),
    ("serve.shed", "count"),
    // traced-run table: self time per layer plus `other`, summing to
    // `trace.wall_s`; the overhead is traced minus untraced wall time
    ("self_s.models", "s"),
    ("self_s.topi", "s"),
    ("self_s.autotune", "s"),
    ("self_s.te", "s"),
    ("self_s.sim", "s"),
    ("self_s.core", "s"),
    ("self_s.graph", "s"),
    ("self_s.runtime", "s"),
    ("self_s.ir", "s"),
    ("self_s.serve", "s"),
    ("self_s.other", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one repeat (one cold worker process) of a workload reports.
#[derive(Clone, Debug, Default)]
pub struct Repeat {
    /// Wall time before the timed phase.
    pub setup_s: f64,
    /// Wall time of set-up plus the timed phase.
    pub wall_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, wrong outputs included.
    pub failed: u64,
    /// Outputs the oracle rejected (a subset of `failed`).
    pub wrong: u64,
    /// End-to-end metrics the workload defines (by name).
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer metrics (traced repeats only).
    pub layers: BTreeMap<String, f64>,
    /// Distinct failure texts.
    pub errors: BTreeSet<String>,
}

impl Repeat {
    /// Counts one attempted operation, failed with `error` if given.
    pub fn record(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            self.errors.insert(e);
        }
    }

    /// Serializes the repeat as one JSON object.
    pub fn to_json(&self) -> Value {
        let nums = |m: &BTreeMap<String, f64>| {
            Value::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), Value::from(*v)))
                    .collect(),
            )
        };
        Value::object([
            ("setup_s", Value::from(self.setup_s)),
            ("wall_s", Value::from(self.wall_s)),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("wrong", Value::from(self.wrong)),
            ("metrics", nums(&self.metrics)),
            ("layers", nums(&self.layers)),
            (
                "errors",
                Value::Array(
                    self.errors
                        .iter()
                        .map(|e| Value::from(e.as_str()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses [`Repeat::to_json`] output.
    pub fn from_json(v: &Value) -> Option<Repeat> {
        let nums = |key: &str| -> Option<BTreeMap<String, f64>> {
            match v.get(key)? {
                Value::Object(m) => m
                    .iter()
                    .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                    .collect(),
                _ => None,
            }
        };
        Some(Repeat {
            setup_s: v.get("setup_s")?.as_f64()?,
            wall_s: v.get("wall_s")?.as_f64()?,
            attempted: v.get("attempted")?.as_i64()? as u64,
            failed: v.get("failed")?.as_i64()? as u64,
            wrong: v.get("wrong")?.as_i64()? as u64,
            metrics: nums("metrics")?,
            layers: nums("layers")?,
            errors: v
                .get("errors")?
                .as_array()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}
