//! The `tune` workload: the paper's Fig. 14/16 pipeline. Every distinct
//! conv2d, depthwise and dense task of ResNet-18 on `titanx-sim` and
//! MobileNet on `a53-sim` is tuned with `TunerKind::GbtRank` at a fixed
//! per-task trial budget through `tune_with` into a fresh on-disk
//! `Journal`; `Database::load` reads the journal back, `tvm::build` uses it
//! and `Module::verify` must come back clean. No IR is executed.

use std::path::Path;
use std::sync::Arc;

use tvm::BuildOptions;
use tvm_autotune::{tune_with, Database, Journal, TuneOptions, TunerKind, TuningTask};
use tvm_graph::{Graph, OpType};
use tvm_runtime::Module;
use tvm_sim::Target;
use tvm_topi as topi;

use crate::layers::{self, timed, Built, SETUP, TIMED};
use crate::Repeat;

/// Measured trials per task.
pub const TRIALS_PER_TASK: usize = 32;
/// Input resolution of both models.
pub const IMAGE: i64 = 224;

fn tasks_of(g: &Graph, target: &Target, out: &mut Vec<TuningTask>) {
    for node in &g.nodes {
        let task = match &node.op {
            OpType::Conv2d(w) => topi::conv2d_task(*w, node.dtype, target.clone()),
            OpType::DepthwiseConv2d(w) => topi::depthwise_task(*w, node.dtype, target.clone()),
            OpType::Dense(w) => topi::dense_task(*w, target.clone()),
            _ => continue,
        };
        if !out.iter().any(|t| t.name == task.name) {
            out.push(task);
        }
    }
}

/// Runs one repeat, or only its set-up; the journal lives under `scratch`.
pub fn run(seed: u64, traced: bool, setup_only: bool, scratch: &Path) -> Repeat {
    let mut rep = Repeat::default();
    let journal_path = scratch.join("tune.journal");
    let _ = std::fs::remove_file(&journal_path);

    let setup = timed(SETUP, || {
        let (models, _) = timed("models.graph", || {
            vec![
                ("resnet18", tvm_models::resnet18(IMAGE), tvm_sim::titanx()),
                (
                    "mobilenet",
                    tvm_models::mobilenet(IMAGE),
                    tvm_sim::arm_a53(),
                ),
            ]
        });
        let (tasks, _) = timed("topi.tasks", || {
            let mut tasks = Vec::new();
            for (_, g, t) in &models {
                tasks_of(g, t, &mut tasks);
            }
            tasks
        });
        let (journal, _) = timed("db.journal", || Journal::create(&journal_path));
        (models, tasks, journal)
    });
    let ((models, tasks, journal), setup_s) = setup;
    rep.setup_s = setup_s;
    if setup_only {
        return rep;
    }
    let mut journal = match journal {
        Ok(j) => j,
        Err(e) => {
            rep.record(Some(format!("journal: {e}")));
            return rep;
        }
    };

    let opts = TuneOptions {
        n_trials: TRIALS_PER_TASK,
        seed,
        ..TuneOptions::default()
    };
    let (mut tune_s, mut build_s) = (0.0, 0.0);
    let (mut trials, mut invalid) = (0usize, 0usize);
    let (mut lookups, mut lowerings, mut simulations, mut lock_wait_ns) =
        (0usize, 0usize, 0usize, 0u64);
    let mut built: Vec<(Arc<Module>, usize)> = Vec::new();
    let (_, timed_s) = timed(TIMED, || {
        for task in &tasks {
            let start = std::time::Instant::now();
            let r = tune_with(task, &opts, TunerKind::GbtRank, None, Some(&mut journal));
            tune_s += start.elapsed().as_secs_f64();
            match r {
                Ok(r) => {
                    trials += r.history.len();
                    invalid += r.history.iter().filter(|h| !h.cost_ms.is_finite()).count();
                    lookups += r.stats.lookups;
                    lowerings += r.stats.lowerings;
                    simulations += r.stats.simulations;
                    lock_wait_ns += r.stats.lock_wait_ns;
                    rep.record(
                        (!r.best_ms.is_finite()).then(|| format!("{}: no finite best", task.name)),
                    );
                }
                Err(e) => rep.record(Some(format!("{}: {e}", task.name))),
            }
        }
        let (db, _) = timed("db.load", || {
            journal.sync().and_then(|_| Database::load(&journal_path))
        });
        let db = match db {
            Ok(db) => db,
            Err(e) => {
                rep.record(Some(format!("journal load: {e}")));
                return;
            }
        };
        for (i, (name, g, target)) in models.iter().enumerate() {
            let opts = BuildOptions {
                db: Some(&db),
                ..BuildOptions::default()
            };
            let (module, s) = timed("core.build", || tvm::build(g, target, &opts));
            build_s += s;
            match module {
                Ok(module) => {
                    rep.record(None);
                    let (verdict, _) = timed("graph.verify", || module.verify());
                    rep.record(verdict.has_errors().then(|| {
                        format!(
                            "{name}: verify: {}",
                            verdict
                                .errors()
                                .next()
                                .map(|d| d.to_string())
                                .unwrap_or_default()
                        )
                    }));
                    built.push((Arc::new(module), i));
                }
                Err(e) => {
                    rep.record(Some(format!("{name}: build: {e}")));
                    rep.record(Some(format!("{name}: not verified, build failed")));
                }
            }
        }
    });
    rep.wall_s = setup_s + timed_s;
    let _ = std::fs::remove_file(&journal_path);

    rep.metrics
        .insert("tune_trials_per_s".into(), trials as f64 / tune_s.max(1e-9));
    // Geometric mean over the models that built; a failed build already
    // counts in `failed`.
    let log_sum: f64 = built.iter().map(|(m, _)| m.total_ms().ln()).sum();
    rep.metrics
        .insert("model_sim_ms".into(), (log_sum / built.len() as f64).exp());
    if traced {
        let l = &mut rep.layers;
        l.insert("autotune.tune_s".into(), tune_s);
        l.insert("core.build_s".into(), build_s);
        l.insert("autotune.trials".into(), trials as f64);
        l.insert("autotune.lookups".into(), lookups as f64);
        l.insert("autotune.lowerings".into(), lowerings as f64);
        l.insert("autotune.simulations".into(), simulations as f64);
        l.insert(
            "autotune.memo_hit_ratio".into(),
            1.0 - lowerings as f64 / lookups.max(1) as f64,
        );
        l.insert(
            "autotune.invalid_share".into(),
            invalid as f64 / trials.max(1) as f64,
        );
        l.insert("autotune.lock_wait_ns".into(), lock_wait_ns as f64);
        let table = layers::span_table(&tvm_obs::Registry::global().events());
        l.extend(layers::span_metrics(&table));
        let probes: Vec<Built> = built
            .iter()
            .map(|(m, i)| Built {
                graph: &models[*i].1,
                module: m,
                target: &models[*i].2,
            })
            .collect();
        l.extend(layers::probe(&probes, false));
    }
    rep
}
