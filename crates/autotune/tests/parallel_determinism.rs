//! The parallel-tuning contract: for a fixed seed, the tuner produces a
//! bit-for-bit identical trial history, best config and best cost at any
//! worker count, and the measurement memo cache lowers each distinct
//! config exactly once per run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tvm_autotune::{
    tune, ConfigEntity, ConfigSpace, TuneOptions, TuneResult, TunerKind, TuningTask,
};
use tvm_ir::DType;
use tvm_sim::arm_a53;
use tvm_te::{compute, create_schedule, lower, placeholder, TeError};

/// A tunable 2-D copy task whose builder counts its own invocations.
fn counting_task(counter: Arc<AtomicUsize>) -> TuningTask {
    let mut space = ConfigSpace::new();
    space.define_split("tile", 256, 64);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("poison", &[0, 0, 0, 1]);
    let builder = move |cfg: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> {
        counter.fetch_add(1, Ordering::SeqCst);
        if cfg.get("poison") == 1 {
            return Err(TeError::msg("invalid configuration"));
        }
        let n = 256i64;
        let a = placeholder(&[n, n], DType::float32(), "A");
        let a2 = a.clone();
        let b = compute(&[n, n], "B", move |i| {
            a2.at(&[i[1].clone(), i[0].clone()]) + 1
        });
        let mut s = create_schedule(std::slice::from_ref(&b));
        let ax = b.op.axes();
        let (_, wi) = s.split(&b, &ax[1], cfg.get("tile")).unwrap();
        if cfg.get("vec") == 1 {
            s.vectorize(&b, &wi).unwrap();
        }
        lower(&s, &[a, b], "copy_t")
    };
    TuningTask {
        name: "parallel_copy".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    }
}

fn tune_with_threads(threads: usize, kind: TunerKind, opts: &TuneOptions) -> TuneResult {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(|| tune(&counting_task(Arc::new(AtomicUsize::new(0))), opts, kind))
}

fn history_of(r: &TuneResult) -> Vec<(u64, f64)> {
    r.history
        .iter()
        .map(|t| (t.config_index, t.cost_ms))
        .collect()
}

#[test]
fn history_identical_across_worker_counts() {
    let opts = TuneOptions {
        n_trials: 32,
        seed: 13,
        ..Default::default()
    };
    for kind in [
        TunerKind::GbtRank,
        TunerKind::GbtReg,
        TunerKind::Random,
        TunerKind::Genetic,
        TunerKind::Predefined,
        TunerKind::Evolutionary,
    ] {
        let r1 = tune_with_threads(1, kind, &opts);
        let r4 = tune_with_threads(4, kind, &opts);
        assert_eq!(
            history_of(&r1),
            history_of(&r4),
            "{kind:?}: trial history must not depend on the worker count"
        );
        assert_eq!(r1.best_ms, r4.best_ms);
        assert_eq!(
            r1.best_config.as_ref().map(|c| c.index),
            r4.best_config.as_ref().map(|c| c.index)
        );
        assert_eq!(r1.best_curve, r4.best_curve);
    }
}

#[test]
fn tuning_runs_are_isolated_within_a_process() {
    // Two tuning runs in one process must not observe each other's tensors:
    // with the old global tensor registry, the DAG built by an interleaved
    // run could alias op ids from the first run and perturb its lowering.
    // Here the same seeded task is tuned before and after a polluting run
    // on a different workload; the histories must match bit for bit.
    let opts = TuneOptions {
        n_trials: 24,
        seed: 7,
        ..Default::default()
    };
    let before = tune(
        &counting_task(Arc::new(AtomicUsize::new(0))),
        &opts,
        TunerKind::GbtRank,
    );
    // Polluting run: different seed, different trajectory, builds hundreds
    // of tensors whose ids would collide under a process-global registry.
    let pollute_opts = TuneOptions {
        n_trials: 24,
        seed: 99,
        ..Default::default()
    };
    let polluter = tune(
        &counting_task(Arc::new(AtomicUsize::new(0))),
        &pollute_opts,
        TunerKind::GbtRank,
    );
    assert!(polluter.history.len() == 24);
    let after = tune(
        &counting_task(Arc::new(AtomicUsize::new(0))),
        &opts,
        TunerKind::GbtRank,
    );
    assert_eq!(
        history_of(&before),
        history_of(&after),
        "a prior tuning run leaked state into a later one"
    );
    assert_eq!(before.best_ms, after.best_ms);
}

#[test]
fn duplicate_configs_lower_exactly_once() {
    // 48 trials on a 28-point space: every config is proposed (and many
    // re-proposed), yet each distinct config index reaches the builder
    // exactly once — the memo cache absorbs every repeat, including the
    // annealer's scoring traffic.
    let counter = Arc::new(AtomicUsize::new(0));
    let task = counting_task(counter.clone());
    let opts = TuneOptions {
        n_trials: 48,
        seed: 13,
        ..Default::default()
    };
    let r = tune(&task, &opts, TunerKind::GbtRank);
    let space_size = task.space.size() as usize;
    assert!(r.history.len() == 48, "budget fully spent");
    let builds = counter.load(Ordering::SeqCst);
    assert!(
        builds <= space_size,
        "builder ran {builds} times for a {space_size}-config space"
    );
    assert_eq!(builds, r.stats.lowerings, "stats must count real lowerings");
    assert!(
        r.stats.lookups > r.stats.lowerings,
        "cache absorbed repeat lookups: {:?}",
        r.stats
    );
}
