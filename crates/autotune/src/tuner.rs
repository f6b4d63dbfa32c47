//! The automated schedule optimizer (§5): schedule explorer + ML cost
//! model + measurement loop (Fig. 11).
//!
//! Every [`TunerKind`] runs the same measurement loop. A kind only picks
//! a *proposer*, which generates each round's candidates, and a *scorer*,
//! which ranks them before measurement — the exploration module and the
//! cost model of "Learning to Optimize Tensor Programs":
//!
//! | Kind | Proposer | Scorer |
//! |---|---|---|
//! | `Random` | uniform random | none |
//! | `Genetic` | population | none |
//! | `Evolutionary` | population | GBT, rank objective |
//! | `GbtRank` | simulated annealing | GBT, rank objective |
//! | `GbtReg` | simulated annealing | GBT, regression objective |
//! | `Predefined` | random sample | static heuristic |
//!
//! * *uniform random* — unmeasured configs drawn uniformly (the Fig. 12
//!   random-search baseline);
//! * *simulated annealing* — parallel chains walk the scorer's
//!   predictions, half of them restarted each round from the best
//!   measured configs or random points (§5.3);
//! * *population* — the best measured configs breed children by
//!   tournament selection, knob-wise crossover and mutation. Without a
//!   scorer the children are measured directly (the Fig. 12 genetic
//!   baseline); with the GBT they evolve against the model for several
//!   rounds between measurements (the sketch-space driver);
//! * *random sample* — one sample ranked by a hand-written heuristic, of
//!   which only the predicted best are measured (Table 1's predefined
//!   cost model).
//!
//! The GBT scorer is trained online on every valid measurement. Until it
//! has a batch of samples, and whenever a proposer has no measured
//! configs to start from, the loop measures a random bootstrap batch.
//!
//! Measurement ("run on real hardware") is a full architectural-simulator
//! evaluation per DESIGN.md.
//!
//! The whole loop — lower → simulate → feature-extract → score — runs on
//! rayon workers, and every (lowering, feature vector, simulated cost) is
//! memoized per run keyed by config index, so duplicate configs proposed
//! by any proposer or scorer are never re-lowered or re-simulated. The
//! run is bit-for-bit deterministic for a fixed seed at any worker count:
//! batches are proposed serially, measured in parallel, and recorded in
//! proposal order, and each annealing chain and breeding generation owns
//! its own seeded RNG.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use rayon::prelude::*;

use tvm_ir::LoweredFunc;
use tvm_sim::{estimate_with, SimOptions, Target};
use tvm_te::TeError;

use crate::config::{ConfigEntity, ConfigSpace};
use crate::db::{DbRecord, Journal};
use crate::features::FeatureCache;
use crate::gbt::{fit_more, FitProfile, Gbt, GbtParams, Objective};
use crate::pool::{DeviceHealth, PoolStats, Tracker};

/// Template callback: lowers one configuration, or rejects it with an
/// error. `Send + Sync` so measurement workers can lower configs
/// concurrently (§5.4's parallel measurement).
pub type TemplateBuilder = Arc<dyn Fn(&ConfigEntity) -> Result<LoweredFunc, TeError> + Send + Sync>;

/// A tunable kernel: a config space plus a builder producing a lowered
/// function for each configuration.
pub struct TuningTask {
    /// Task name (db key).
    pub name: String,
    /// Declared schedule space.
    pub space: ConfigSpace,
    /// Template: config -> lowered function. Configs may be invalid
    /// (e.g. exceeding shared memory); the builder returns an error and
    /// the tuner skips them.
    pub builder: TemplateBuilder,
    /// Measurement target.
    pub target: Target,
    /// Simulator options (intrinsic costs).
    pub sim_opts: SimOptions,
}

impl TuningTask {
    /// Builds and "measures" one configuration; `None` when invalid.
    pub fn measure(&self, cfg: &ConfigEntity) -> Option<(LoweredFunc, f64)> {
        let f = (self.builder)(cfg).ok()?;
        let ms = estimate_with(&f, &self.target, &self.sim_opts).millis();
        Some((f, ms))
    }
}

// Lowering a config from any worker thread requires the task (and hence
// the IR the builder produces) to be shareable.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TuningTask>();
    assert_send_sync::<LoweredFunc>();
};

/// Which proposer × scorer pair drives exploration (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TunerKind {
    /// ML cost model (rank objective) + simulated annealing.
    GbtRank,
    /// ML cost model (regression objective) + simulated annealing.
    GbtReg,
    /// Blackbox random search.
    Random,
    /// Blackbox genetic algorithm: the measured population breeds
    /// children that are measured as bred.
    Genetic,
    /// Hand-written static cost model (no measurements drive the search;
    /// Table 1's "predefined cost model" row): candidates are ranked by a
    /// simple arithmetic-intensity heuristic, and only the predicted-best
    /// are measured. Zero data cost, but the model's bias caps quality.
    Predefined,
    /// Evolutionary search guided by the ML cost model: tournament
    /// selection + crossover + mutation over the measured population,
    /// children ranked by the GBT before measurement. The default driver
    /// for sketch-derived spaces, where the structural `sketch` knob and
    /// the hole knobs recombine well; honors
    /// [`TuneOptions::warm_start`] seeds (transfer learning).
    Evolutionary,
}

/// Tuning options.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Total measurement trials.
    pub n_trials: usize,
    /// Trials measured per round (the paper measures in batches on the
    /// device cluster).
    pub batch: usize,
    /// Simulated-annealing steps per exploration round.
    pub sa_steps: usize,
    /// Parallel annealing chains.
    pub sa_chains: usize,
    /// RNG seed (determinism for tests/benches).
    pub seed: u64,
    /// Config indices to seed the initial population with (transfer
    /// learning; see [`crate::transfer::warm_start_seeds`]). Used by the
    /// population-based kinds, [`TunerKind::Genetic`] and
    /// [`TunerKind::Evolutionary`]; empty means cold start. When tuning
    /// through a journal with no explicit seeds, [`tune_with`] fills
    /// this from the nearest journaled neighbor automatically.
    pub warm_start: Vec<u64>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            n_trials: 64,
            batch: 8,
            sa_steps: 40,
            sa_chains: 16,
            seed: 0,
            warm_start: Vec::new(),
        }
    }
}

/// One measured trial.
#[derive(Clone, Debug)]
pub struct TrialRecord {
    /// Trial number (1-based).
    pub trial: usize,
    /// Config index in the space.
    pub config_index: u64,
    /// Measured cost (ms); `f64::INFINITY` for invalid configs.
    pub cost_ms: f64,
}

/// Work counters of one tuning run (cache effectiveness / throughput).
#[derive(Clone, Debug, Default)]
pub struct TuneStats {
    /// Template-builder invocations (lowerings actually performed).
    pub lowerings: usize,
    /// Simulator evaluations actually performed.
    pub simulations: usize,
    /// Config lookups served (measurements + explorer scorings); lookups
    /// minus lowerings = memo-cache hits.
    pub lookups: usize,
    /// Incremental-lowering plan-cache hits during this run (delta of the
    /// process-wide [`tvm_te::lower_stats`] counters; concurrent runs in
    /// one process each see the sum of all activity in their window).
    pub plan_hits: u64,
    /// Plan-cache misses (full plans built) during this run.
    pub plan_misses: u64,
    /// Interned int immediates served from the IR pool during this run
    /// (delta of [`tvm_ir::intern_stats`]).
    pub intern_hits: u64,
    /// Int immediates allocated outside the intern pool during this run.
    pub intern_misses: u64,
    /// Contended lock acquisitions observed during this run (measurement
    /// memo cache + plan caches).
    pub lock_waits: u64,
    /// Nanoseconds spent waiting on those contended locks.
    pub lock_wait_ns: u64,
    /// Retry/quarantine/fault counters from the device pool (zeros when
    /// the run measured without a pool).
    pub pool: PoolStats,
    /// Per-device health at the end of the run (empty without a pool).
    pub device_health: Vec<DeviceHealth>,
}

/// One parallelizable phase of tuner work: the per-item wall-clock
/// durations of a batch whose items ran (or could run) concurrently.
/// Recorded in execution order so throughput tooling can replay the run
/// against a hypothetical number of worker lanes.
#[derive(Clone, Debug)]
pub struct WorkPhase {
    /// What the items were: `"measure"` (lower + simulate), `"lower"`
    /// (pool path), `"anneal"` (one SA chain per item), or `"fit"` (one
    /// parallel region inside a cost-model fit).
    pub label: &'static str,
    /// Per-item durations in seconds, in proposal order.
    pub durs_s: Vec<f64>,
}

/// Ordered log of the parallelizable work a tuning run performed.
/// Everything not covered by a phase (proposal merging, boosting-loop
/// bookkeeping, journaling) is inherently serial.
#[derive(Clone, Debug, Default)]
pub struct WorkLog {
    /// Phases in execution order.
    pub phases: Vec<WorkPhase>,
}

/// Result of a tuning run.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// All measured trials in order.
    pub history: Vec<TrialRecord>,
    /// Best cost found.
    pub best_ms: f64,
    /// Best configuration.
    pub best_config: Option<ConfigEntity>,
    /// `best_curve[i]` = best cost after trial `i+1` (Fig. 12 y-axis data).
    pub best_curve: Vec<f64>,
    /// Lower/simulate/lookup counters for this run.
    pub stats: TuneStats,
    /// Per-phase parallel work durations (see [`WorkLog`]).
    pub work: WorkLog,
}

impl TuneResult {
    /// Best cost after `n` trials (for convergence comparisons).
    pub fn best_after(&self, n: usize) -> f64 {
        if self.best_curve.is_empty() {
            return f64::INFINITY;
        }
        self.best_curve[n.min(self.best_curve.len()) - 1]
    }
}

// ------------------------------------------------------------ memo cache

/// A memoized lowering: the function plus its feature vector; `None` for
/// invalid configs (builder error).
type Lowered = Option<(Arc<LoweredFunc>, Arc<Vec<f64>>)>;

/// Per-config memo slot: the lowering (with features) and the simulated
/// cost are each computed exactly once per tuning run, even when several
/// workers race on the same config.
#[derive(Default)]
struct CacheSlot {
    lowered: OnceLock<Lowered>,
    /// Simulated cost; `INFINITY` for invalid configs.
    cost: OnceLock<f64>,
}

/// Measurement/lowering memoization for one tuning run (keyed by config
/// index): a config scored or measured again — by any proposer, scorer or
/// the measurement itself — reuses the first lowering, feature vector and
/// simulated cost.
struct MeasureCache<'a> {
    task: &'a TuningTask,
    slots: Mutex<HashMap<u64, Arc<CacheSlot>>>,
    features: FeatureCache,
    lowerings: AtomicUsize,
    simulations: AtomicUsize,
    lookups: AtomicUsize,
    /// Contended acquisitions of the slot-map lock, and the total wait.
    lock_waits: AtomicU64,
    lock_wait_ns: AtomicU64,
    /// Per-phase parallel work durations, harvested into the result.
    work: Mutex<WorkLog>,
    /// When set, measurements dispatch through the fault-tolerant device
    /// pool instead of a direct simulator call. Only the serial batch
    /// path locks it, so contention is nil; the mutex exists to keep the
    /// cache `Sync` for the annealing workers.
    pool: Option<Mutex<&'a mut Tracker>>,
}

impl<'a> MeasureCache<'a> {
    fn new(task: &'a TuningTask) -> Self {
        MeasureCache {
            task,
            slots: Mutex::new(HashMap::new()),
            features: FeatureCache::new(),
            lowerings: AtomicUsize::new(0),
            simulations: AtomicUsize::new(0),
            lookups: AtomicUsize::new(0),
            lock_waits: AtomicU64::new(0),
            lock_wait_ns: AtomicU64::new(0),
            work: Mutex::new(WorkLog::default()),
            pool: None,
        }
    }

    /// Pre-loads the measured cost of a config (journal replay on
    /// resume); first writer wins, so replay never overwrites a live
    /// measurement.
    fn preload_cost(&self, idx: u64, cost: f64) {
        let slot = self.slot(idx);
        let _ = slot.cost.get_or_init(|| cost);
    }

    /// Locks the slot map, recording the wait when contended. Poisoned
    /// locks are recovered: the map only holds `Arc`s to per-slot
    /// `OnceLock`s, so a panicking peer cannot leave it torn.
    fn lock_slots(&self) -> MutexGuard<'_, HashMap<u64, Arc<CacheSlot>>> {
        if let Ok(g) = self.slots.try_lock() {
            return g;
        }
        let start = Instant::now();
        let g = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let ns = start.elapsed().as_nanos() as u64;
        self.lock_waits.fetch_add(1, Ordering::Relaxed);
        self.lock_wait_ns.fetch_add(ns, Ordering::Relaxed);
        tvm_obs::lock_wait("measure_cache", ns);
        g
    }

    /// Records one parallelizable phase's per-item durations.
    fn record_phase(&self, label: &'static str, durs_s: Vec<f64>) {
        if durs_s.is_empty() {
            return;
        }
        self.work
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .phases
            .push(WorkPhase { label, durs_s });
    }

    fn slot(&self, idx: u64) -> Arc<CacheSlot> {
        let mut map = self.lock_slots();
        map.entry(idx).or_default().clone()
    }

    /// Lowered function + feature vector for a config; memoized.
    fn lowered(&self, idx: u64) -> Lowered {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let slot = self.slot(idx);
        slot.lowered
            .get_or_init(|| {
                self.lowerings.fetch_add(1, Ordering::Relaxed);
                let cfg = self.task.space.get(idx);
                let func = (self.task.builder)(&cfg).ok()?;
                let func = Arc::new(func);
                let feats = self.features.get_or_extract(idx, &func);
                Some((func, feats))
            })
            .clone()
    }

    /// Simulated cost (and features when valid) for a config; memoized.
    fn measure(&self, idx: u64) -> (f64, Option<Arc<Vec<f64>>>) {
        let lowered = self.lowered(idx);
        let slot = self.slot(idx);
        let cost = *slot.cost.get_or_init(|| match &lowered {
            None => f64::INFINITY,
            Some((func, _)) => {
                self.simulations.fetch_add(1, Ordering::Relaxed);
                estimate_with(func, &self.task.target, &self.task.sim_opts).millis()
            }
        });
        (cost, lowered.map(|(_, feats)| feats))
    }

    fn stats(&self) -> TuneStats {
        TuneStats {
            lowerings: self.lowerings.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            lock_waits: self.lock_waits.load(Ordering::Relaxed),
            lock_wait_ns: self.lock_wait_ns.load(Ordering::Relaxed),
            ..TuneStats::default()
        }
    }
}

/// Maps `f` over `items` on the rayon workers, returning results in input
/// order alongside each item's wall-clock duration — the raw material of
/// a [`WorkPhase`].
fn timed_par_map<T: Send, U: Send>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> (Vec<U>, Vec<f64>) {
    let timed: Vec<(U, f64)> = items
        .into_par_iter()
        .map(|item| {
            let start = Instant::now();
            let r = f(item);
            (r, start.elapsed().as_secs_f64())
        })
        .collect();
    timed.into_iter().unzip()
}

/// Measures a proposed batch on the rayon workers; results come back in
/// proposal order, so the recorded history is thread-count independent.
///
/// With a device pool attached, unmeasured configs are dispatched as one
/// batch through [`Tracker::run_batch_detailed`] — retries, quarantine
/// and replica verification included — and permanently failed jobs (all
/// devices dead, retries exhausted) record as `INFINITY` rather than
/// aborting the run.
fn measure_batch(cache: &MeasureCache, batch: &[u64]) -> Vec<(f64, Option<Arc<Vec<f64>>>)> {
    let _span = tvm_obs::span_with("measure", &[("batch", &batch.len().to_string())]);
    let Some(pool) = &cache.pool else {
        let (results, durs) = timed_par_map(batch.to_vec(), |idx| cache.measure(idx));
        cache.record_phase("measure", durs);
        return results;
    };
    // Lower (and feature-extract) everything in parallel; memoized.
    let (lowered, durs): (Vec<Lowered>, Vec<f64>) =
        timed_par_map(batch.to_vec(), |idx| cache.lowered(idx));
    cache.record_phase("lower", durs);
    // Queue each distinct not-yet-measured valid config once, in batch
    // order (the pool's dispatch order is part of the deterministic
    // transcript).
    let mut queued: HashSet<u64> = HashSet::new();
    let mut jobs: Vec<u64> = Vec::new();
    let mut funcs: Vec<Arc<LoweredFunc>> = Vec::new();
    for (&idx, low) in batch.iter().zip(&lowered) {
        let slot = cache.slot(idx);
        if slot.cost.get().is_some() || !queued.insert(idx) {
            continue;
        }
        match low {
            Some((f, _)) => {
                jobs.push(idx);
                funcs.push(Arc::clone(f));
            }
            None => {
                let _ = slot.cost.get_or_init(|| f64::INFINITY);
            }
        }
    }
    if !jobs.is_empty() {
        let refs: Vec<&LoweredFunc> = funcs.iter().map(|f| f.as_ref()).collect();
        let outcomes = {
            // Poison recovery: a panic on another thread mid-dispatch
            // leaves the tracker in whatever state its own error handling
            // produced — still usable, and far better than cascading the
            // panic through every remaining measurement.
            let mut tracker = pool.lock().unwrap_or_else(|e| e.into_inner());
            tracker.run_batch_detailed(cache.task.target.name(), &refs)
        };
        for (&idx, outcome) in jobs.iter().zip(&outcomes) {
            let cost = *outcome.ms.as_ref().unwrap_or(&f64::INFINITY);
            let slot = cache.slot(idx);
            let _ = slot.cost.get_or_init(|| {
                cache.simulations.fetch_add(1, Ordering::Relaxed);
                cost
            });
        }
    }
    batch
        .iter()
        .zip(lowered)
        .map(|(&idx, low)| {
            // Every batch config was queued or preloaded above; if a pool
            // outcome went missing anyway (a tracker bug, a short outcome
            // vector), degrade that config to "invalid" rather than
            // aborting the whole tuning run.
            let cost = cache
                .slot(idx)
                .cost
                .get()
                .copied()
                .unwrap_or(f64::INFINITY);
            (cost, low.map(|(_, feats)| feats))
        })
        .collect()
}

/// Runs the optimizer on a task (direct simulator measurement, no pool,
/// no journal).
pub fn tune(task: &TuningTask, opts: &TuneOptions, kind: TunerKind) -> TuneResult {
    tune_with(task, opts, kind, None, None).expect("tuning without a journal cannot fail on io")
}

/// Runs the optimizer with optional fault-tolerant measurement and
/// crash-safe journaling.
///
/// * `pool` — dispatch measurements through a health-aware device
///   [`Tracker`] (retries, quarantine, replica verification); its
///   retry/fault counters and per-device health land in
///   [`TuneStats::pool`] / [`TuneStats::device_health`].
/// * `journal` — append every trial to a crash-safe [`Journal`] as it
///   completes. When the journal already holds trials for this task
///   (a previous run was killed), their costs are replayed into the
///   measurement cache and the run resumes: the deterministic explorer
///   re-derives the same proposals, replayed trials cost nothing, and
///   only new trials are measured and appended. Errors if the journal
///   was written under a different seed (resuming it would silently
///   diverge).
///
/// The result is bit-for-bit identical to the equivalent uninterrupted
/// [`tune`] run at any worker count, as long as every pooled job
/// eventually succeeds (the fault-tolerance guarantee the chaos tier
/// asserts).
pub fn tune_with(
    task: &TuningTask,
    opts: &TuneOptions,
    kind: TunerKind,
    pool: Option<&mut Tracker>,
    journal: Option<&mut Journal>,
) -> std::io::Result<TuneResult> {
    let _tune_span = tvm_obs::span_with(
        "tune",
        &[("task", &task.name), ("tuner", &format!("{kind:?}"))],
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut cache = MeasureCache::new(task);
    let pool_before: Option<PoolStats> = pool.as_ref().map(|t| t.pool_stats().clone());
    cache.pool = pool.map(Mutex::new);
    // Process-wide counters: deltas over the run attribute plan-cache and
    // intern-pool behavior to this run's stats.
    let lower_before = tvm_te::lower_stats();
    let intern_before = tvm_ir::intern_stats();

    // Declared before `h`: the journal sink inside `h` borrows this cell,
    // so it must outlive the history.
    let journal_err: std::cell::RefCell<Option<std::io::Error>> = std::cell::RefCell::new(None);
    // Effective options: `warm_start` may be filled from the journal's
    // nearest neighbor below.
    let mut eff = opts.clone();
    let mut h = History::new();
    if let Some(j) = journal {
        if let Some(seed) = j.meta_seed(&task.name) {
            if seed != opts.seed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal for task `{}` was written with seed {seed}, not {}",
                        task.name, opts.seed
                    ),
                ));
            }
        }
        j.append_meta(&task.name, opts.seed)?;
        // Fingerprint the task in invariant feature space: the signature
        // is journaled (first writer wins, so replays append nothing) and
        // locates the nearest already-tuned neighbor for warm-starting.
        // The canonical config index 0 keeps the fingerprint identical
        // across runs; the invariant block is the feature vector's tail.
        let probe = [0u64, task.space.size() / 2];
        if let Some(feats) = probe.iter().find_map(|&i| cache.lowered(i).map(|(_, f)| f)) {
            let sig = feats[feats.len() - crate::features::INVARIANT_FEATURES..].to_vec();
            if eff.warm_start.is_empty() {
                eff.warm_start =
                    crate::transfer::warm_start_seeds(j, &task.name, &sig, &task.space, 4);
            }
            j.append_sig(&task.name, &sig)?;
        }
        let prior = j.trials_for(&task.name);
        h.skip = prior.len();
        for rec in prior {
            cache.preload_cost(rec.config_index, rec.cost_ms);
        }
        let name = task.name.clone();
        let err = &journal_err;
        h.sink = Some(Box::new(move |trial, cfg: &ConfigEntity, cost| {
            if err.borrow().is_some() {
                return;
            }
            let rec = DbRecord {
                task: name.clone(),
                trial: trial as u64,
                config_index: cfg.index,
                config: cfg.summary(),
                cost_ms: cost,
            };
            if let Err(e) = j.append(rec) {
                *err.borrow_mut() = Some(e);
            }
        }));
    }

    let mut result = search(task, &cache, &eff, kind, &mut rng, h);
    if let Some(e) = journal_err.borrow_mut().take() {
        return Err(e);
    }
    result.stats = cache.stats();
    let lower_after = tvm_te::lower_stats();
    let (ih_before, im_before) = intern_before;
    let (ih_after, im_after) = tvm_ir::intern_stats();
    result.stats.plan_hits = lower_after.plan_hits.saturating_sub(lower_before.plan_hits);
    result.stats.plan_misses = lower_after
        .plan_misses
        .saturating_sub(lower_before.plan_misses);
    result.stats.intern_hits = ih_after.saturating_sub(ih_before);
    result.stats.intern_misses = im_after.saturating_sub(im_before);
    result.stats.lock_waits += lower_after
        .lock_waits
        .saturating_sub(lower_before.lock_waits);
    result.stats.lock_wait_ns += lower_after
        .lock_wait_ns
        .saturating_sub(lower_before.lock_wait_ns);
    result.work = std::mem::take(cache.work.get_mut().unwrap_or_else(|e| e.into_inner()));
    if let Some(m) = cache.pool.take() {
        let tracker: &mut Tracker = m.into_inner().unwrap_or_else(|e| e.into_inner());
        let before = pool_before.unwrap_or_default();
        result.stats.pool = tracker.pool_stats().minus(&before);
        result.stats.device_health = tracker.health();
    }
    publish_stats(&task.name, &result);
    Ok(result)
}

/// Folds one run's [`TuneStats`] into the global `tvm-obs` registry:
/// work counters accumulate across runs, per-device health lands as
/// gauges keyed by task. No-ops when observability is disabled.
fn publish_stats(task: &str, result: &TuneResult) {
    if !tvm_obs::enabled() {
        return;
    }
    let s = &result.stats;
    tvm_obs::counter_add("autotune.trials", result.history.len() as u64);
    tvm_obs::counter_add("autotune.lowerings", s.lowerings as u64);
    tvm_obs::counter_add("autotune.simulations", s.simulations as u64);
    tvm_obs::counter_add("autotune.lookups", s.lookups as u64);
    tvm_obs::counter_add(
        "autotune.cache_hits",
        s.lookups.saturating_sub(s.lowerings) as u64,
    );
    tvm_obs::counter_add("autotune.plan_hits", s.plan_hits);
    tvm_obs::counter_add("autotune.plan_misses", s.plan_misses);
    tvm_obs::counter_add("autotune.intern_hits", s.intern_hits);
    tvm_obs::counter_add("autotune.intern_misses", s.intern_misses);
    tvm_obs::counter_add("autotune.lock_waits", s.lock_waits);
    tvm_obs::counter_add("autotune.lock_wait_ns", s.lock_wait_ns);
    tvm_obs::counter_add("autotune.pool.attempts", s.pool.attempts as u64);
    tvm_obs::counter_add("autotune.pool.retries", s.pool.retries as u64);
    tvm_obs::counter_add("autotune.pool.timeouts", s.pool.timeouts as u64);
    tvm_obs::counter_add("autotune.pool.quarantines", s.pool.quarantines as u64);
    tvm_obs::counter_add("autotune.pool.failed_jobs", s.pool.failed_jobs as u64);
    tvm_obs::gauge_set(&format!("autotune.{task}.best_ms"), result.best_ms);
    for (i, d) in result.stats.device_health.iter().enumerate() {
        let rate = if d.attempts > 0 {
            (d.attempts - d.failures) as f64 / d.attempts as f64
        } else {
            1.0
        };
        tvm_obs::gauge_set(&format!("autotune.{task}.device{i}.success_rate"), rate);
    }
}

/// Per-trial observer: `(trial, config, cost)` for every trial past the
/// journal-replay prefix. Used to append to the crash-safe journal as
/// trials complete (not at the end of the run).
type TrialSink<'s> = Box<dyn FnMut(usize, &ConfigEntity, f64) + 's>;

struct History<'s> {
    records: Vec<TrialRecord>,
    best_ms: f64,
    best_config: Option<ConfigEntity>,
    best_curve: Vec<f64>,
    /// Trials already journaled by a previous (killed) run; the sink is
    /// not called for them, so resume never duplicates journal lines.
    skip: usize,
    sink: Option<TrialSink<'s>>,
}

impl<'s> History<'s> {
    fn new() -> Self {
        History {
            records: Vec::new(),
            best_ms: f64::INFINITY,
            best_config: None,
            best_curve: Vec::new(),
            skip: 0,
            sink: None,
        }
    }

    fn push(&mut self, cfg: &ConfigEntity, cost: f64) {
        if cost < self.best_ms {
            self.best_ms = cost;
            self.best_config = Some(cfg.clone());
        }
        self.records.push(TrialRecord {
            trial: self.records.len() + 1,
            config_index: cfg.index,
            cost_ms: cost,
        });
        self.best_curve.push(self.best_ms);
        let trial = self.records.len();
        if trial > self.skip {
            if let Some(sink) = &mut self.sink {
                sink(trial, cfg, cost);
            }
        }
    }

    fn finish(self) -> TuneResult {
        TuneResult {
            history: self.records,
            best_ms: self.best_ms,
            best_config: self.best_config,
            best_curve: self.best_curve,
            stats: TuneStats::default(),
            work: WorkLog::default(),
        }
    }
}

// ----------------------------------------------------------- search loop

/// Where a round's candidates come from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Proposer {
    /// Uniform random configs not yet measured.
    Random,
    /// Simulated-annealing chains over the scorer's predictions, half of
    /// them restarted each round from elites or random points (§5.3).
    Anneal,
    /// A best-first population of measured configs, bred by tournament
    /// selection, knob-wise crossover and mutation.
    Population,
    /// One random sample ranked by the scorer; its top is measured, and
    /// uniform random picks fill any budget left over.
    Sample,
}

/// How candidates are ranked before they are measured.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scorer {
    /// Blackbox: candidates are measured as proposed.
    None,
    /// The static [`predefined_score`] heuristic.
    Heuristic,
    /// Gradient-boosted trees fitted online on the measured trials.
    Gbt(Objective),
}

/// The proposer × scorer pair behind each public [`TunerKind`].
fn plan(kind: TunerKind) -> (Proposer, Scorer) {
    match kind {
        TunerKind::Random => (Proposer::Random, Scorer::None),
        TunerKind::Genetic => (Proposer::Population, Scorer::None),
        TunerKind::Evolutionary => (Proposer::Population, Scorer::Gbt(Objective::Rank)),
        TunerKind::GbtRank => (Proposer::Anneal, Scorer::Gbt(Objective::Rank)),
        TunerKind::GbtReg => (Proposer::Anneal, Scorer::Gbt(Objective::Regression)),
        TunerKind::Predefined => (Proposer::Sample, Scorer::Heuristic),
    }
}

/// Boosting rounds each refit adds for the annealer. The model is
/// extended warm-start on the grown history rather than refitted, so the
/// serial fit stays off the measurement loop's critical path.
const ANNEAL_TREES_PER_ROUND: usize = 4;
/// Boosting rounds each refit adds for the population proposer.
const POPULATION_TREES_PER_ROUND: usize = 8;
/// Best measured configs kept as annealing restart points.
const ELITES: usize = 8;
/// Model-only breeding rounds between two measured batches.
const EVOLVE_ROUNDS: usize = 6;

/// Static heuristic score (higher = predicted faster): rewards SIMD-able
/// unit-stride inner loops, parallelism and small inner-tile footprints —
/// the kind of rules a hand-written cost model encodes. Deliberately
/// ignores the memory hierarchy's actual behavior (that is the "model
/// bias" the paper's Table 1 calls out).
fn predefined_score(func: &tvm_ir::LoweredFunc) -> f64 {
    let an = tvm_sim::analyze(func);
    let vec_frac = if an.flops > 0.0 {
        an.vector_flops / an.flops
    } else {
        0.0
    };
    let par = (an.parallel_extent as f64).clamp(1.0, 8.0);
    let unit_stride = an
        .accesses
        .iter()
        .filter(|a| a.innermost_stride == 1 || a.innermost_stride == 0)
        .count() as f64
        / an.accesses.len().max(1) as f64;
    let overhead = an.loop_iterations / an.flops.max(1.0);
    // GPU-flavored terms: total parallelism and coalesced global access.
    let threads = (an.block_threads() * an.grid_blocks()) as f64;
    let global: Vec<_> = an
        .accesses
        .iter()
        .filter(|a| a.scope == tvm_ir::MemScope::Global)
        .collect();
    let coalesced = global
        .iter()
        .filter(|a| matches!(a.thread_stride, Some(0) | Some(1)))
        .count() as f64
        / global.len().max(1) as f64;
    threads.clamp(1.0, 16384.0).log2()
        + 3.0 * coalesced
        + 3.0 * vec_frac
        + par.log2()
        + 2.0 * unit_stride
        - overhead
}

/// The measurement loop every tuner kind runs: propose a batch (serially,
/// from the RNG), measure it on the workers, record it in proposal order,
/// and feed the results back to the proposer and the scorer.
fn search(
    task: &TuningTask,
    cache: &MeasureCache,
    opts: &TuneOptions,
    kind: TunerKind,
    rng: &mut StdRng,
    mut h: History<'_>,
) -> TuneResult {
    let (proposer, scorer) = plan(kind);
    let mut s = Search {
        task,
        cache,
        opts,
        proposer,
        scorer,
        visited: HashSet::new(),
        best: Vec::new(),
        xs: Vec::new(),
        ys: Vec::new(),
        model: Gbt::default(),
        trained: 0,
        chains: Vec::new(),
        stagnant: 0,
    };
    if proposer == Proposer::Anneal {
        s.chains = (0..opts.sa_chains)
            .map(|_| task.space.random_index(rng))
            .collect();
    }
    let keep = match proposer {
        Proposer::Population => population_size(opts),
        _ => ELITES,
    };
    let mut first = true;
    while h.records.len() < opts.n_trials {
        let prev_best = h.best_ms;
        let remaining = opts.n_trials - h.records.len();
        let mut batch = s.propose(first, opts.batch.min(remaining).max(1), rng);
        first = false;
        batch.truncate(remaining);
        s.visited.extend(&batch);
        for (&idx, (cost, feats)) in batch.iter().zip(measure_batch(cache, &batch)) {
            let cfg = task.space.get(idx);
            match feats {
                Some(feats) if cost.is_finite() => {
                    if matches!(scorer, Scorer::Gbt(_)) {
                        s.xs.push(feats.as_ref().clone());
                        s.ys.push(-(cost.max(1e-9)).ln());
                    }
                    s.best.push((idx, cost));
                    h.push(&cfg, cost);
                }
                _ => h.push(&cfg, f64::INFINITY),
            }
        }
        s.best.sort_by(|a, b| a.1.total_cmp(&b.1));
        s.best.dedup_by_key(|(i, _)| *i);
        s.best.truncate(keep);
        // Rounds since the best cost last improved; widens the annealer's
        // random tail when the search plateaus (tree predictions tie over
        // large flat regions, and a purely greedy batch would keep
        // harvesting one basin).
        s.stagnant = if h.best_ms < prev_best {
            0
        } else {
            s.stagnant + 1
        };
    }
    h.finish()
}

/// Size of the breeding population (and of its initial batch).
fn population_size(opts: &TuneOptions) -> usize {
    (opts.batch * 2).max(16)
}

/// State of one search.
struct Search<'s, 'a> {
    task: &'s TuningTask,
    cache: &'s MeasureCache<'a>,
    opts: &'s TuneOptions,
    proposer: Proposer,
    scorer: Scorer,
    /// Every config measured so far.
    visited: HashSet<u64>,
    /// The best measured valid configs, best first: the annealer's
    /// restart points and the breeding population.
    best: Vec<(u64, f64)>,
    /// The GBT scorer's training set: features and `-ln(cost)` of every
    /// valid measurement.
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    model: Gbt,
    /// Training samples the model has been fitted on.
    trained: usize,
    /// Annealing chain heads; exploration state persists across model
    /// updates (§5.3).
    chains: Vec<u64>,
    /// Rounds since the best cost last improved.
    stagnant: usize,
}

impl Search<'_, '_> {
    /// The next batch to measure (the loop truncates it to the budget);
    /// `first` marks the run's first round.
    fn propose(&mut self, first: bool, want: usize, rng: &mut StdRng) -> Vec<u64> {
        let learning = matches!(self.scorer, Scorer::Gbt(_));
        match self.proposer {
            Proposer::Sample if first => self.rank_sample(rng),
            Proposer::Random | Proposer::Sample => self.random_batch(Vec::new(), want, true, rng),
            Proposer::Population if first => {
                // Generation zero: the space's declared seeds first (sketch
                // generators emit occupancy-heuristic starting points, the
                // analogue of TVM's fallback configs; fixed positions keep
                // cold and warmed runs comparable trial-for-trial), then
                // transfer seeds, random fill after.
                let n = population_size(self.opts).min(self.opts.n_trials).max(1);
                let size = self.task.space.size().max(1);
                let mut init: Vec<u64> = Vec::new();
                for c in self.task.space.seeds.iter().chain(&self.opts.warm_start) {
                    if init.len() < n && !init.contains(&(c % size)) {
                        init.push(c % size);
                    }
                }
                self.random_batch(init, n, true, rng)
            }
            // No usable population or training set yet: random bootstrap.
            _ if self.best.is_empty() || learning && self.xs.len() < self.opts.batch => {
                self.random_batch(Vec::new(), want, false, rng)
            }
            Proposer::Anneal => {
                self.refit();
                let _sa_span = tvm_obs::span("propose_sa");
                self.propose_sa(rng)
            }
            Proposer::Population if learning => {
                self.refit();
                self.evolve(want, rng)
            }
            Proposer::Population => (0..want)
                .map(|_| breed(&self.task.space, &self.best, rng))
                .collect(),
        }
    }

    /// Fills `batch` up to `n` with uniform random configs. While the
    /// space is larger than the trial budget, measured configs are
    /// redrawn, and so are repeats within the batch when `distinct`.
    fn random_batch(
        &self,
        mut batch: Vec<u64>,
        n: usize,
        distinct: bool,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        let small = self.task.space.size() <= self.opts.n_trials as u64;
        while batch.len() < n {
            let idx = self.task.space.random_index(rng);
            if small || !(self.visited.contains(&idx) || distinct && batch.contains(&idx)) {
                batch.push(idx);
            }
        }
        batch
    }

    /// The scorer's prediction for a config (higher = predicted faster);
    /// `-inf` for configs that fail to lower.
    fn score(&self, idx: u64) -> f64 {
        match self.cache.lowered(idx) {
            None => f64::NEG_INFINITY,
            Some((func, feats)) => match self.scorer {
                Scorer::Heuristic => predefined_score(&func),
                _ => self.model.predict(&feats),
            },
        }
    }

    /// Extends the GBT model over the trials measured since the last fit.
    fn refit(&mut self) {
        let Scorer::Gbt(objective) = self.scorer else {
            return;
        };
        if self.xs.len() <= self.trained {
            return;
        }
        let _fit_span = tvm_obs::span_with("fit", &[("samples", &self.xs.len().to_string())]);
        let params = GbtParams {
            objective,
            ..GbtParams::default()
        };
        let trees = match self.proposer {
            Proposer::Anneal => ANNEAL_TREES_PER_ROUND,
            _ => POPULATION_TREES_PER_ROUND,
        };
        let prof = FitProfile::default();
        fit_more(
            &mut self.model,
            &self.xs,
            &self.ys,
            &params,
            trees,
            Some(&prof),
        );
        self.trained = self.xs.len();
        // Each parallel region inside the fit (per-feature split searches,
        // rank-gradient chunks, prediction updates) is one replayable
        // phase; item durations within a region are uniform to first
        // order, so the total is split evenly.
        for (dur_s, items) in prof.take() {
            self.cache
                .record_phase("fit", vec![dur_s / items as f64; items]);
        }
    }

    /// Scores a random sample of `8 × n_trials` (at least 64) configs
    /// and returns the predicted-best `n_trials`, measured in one batch.
    /// Sampling is serial (RNG); lowering and scoring run on the workers.
    fn rank_sample(&self, rng: &mut StdRng) -> Vec<u64> {
        let sample: Vec<u64> = (0..(self.opts.n_trials * 8).max(64))
            .map(|_| self.task.space.random_index(rng))
            .collect();
        let mut scored: Vec<(u64, f64)> = sample
            .par_iter()
            .map(|&idx| (idx, self.score(idx)))
            .collect::<Vec<_>>()
            .into_iter()
            .filter(|(_, s)| s.is_finite())
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.dedup_by_key(|(i, _)| *i);
        scored
            .into_iter()
            .take(self.opts.n_trials)
            .map(|(i, _)| i)
            .collect()
    }

    /// Picks `n` configs from scored candidates: most slots go to the
    /// best-predicted unmeasured ones, the tail to random unmeasured
    /// picks (so a biased early model cannot trap the search in one
    /// basin). The random tail widens with `stagnant` — predicted-best
    /// proposals keep landing in the plateau the best already sits on,
    /// and random picks are what escape it.
    fn select(
        &self,
        mut cands: Vec<(u64, f64)>,
        n: usize,
        stagnant: usize,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        cands.retain(|(i, _)| !self.visited.contains(i));
        cands.sort_by(|a, b| b.1.total_cmp(&a.1));
        let explore = ((n / 4).max(1) * (1 + stagnant.min(3))).min(n / 2);
        let exploit = n.saturating_sub(explore.max(1));
        // At most one pick per distinct predicted score: tree predictions
        // plateau, and a batch drawn from one plateau is nearly redundant.
        // Candidates may repeat (chains revisit states), so the checks
        // are exact rather than adjacent.
        let mut out: Vec<u64> = Vec::new();
        let mut levels: HashSet<u64> = HashSet::new();
        for &(i, s) in &cands {
            if out.len() >= exploit {
                break;
            }
            if !out.contains(&i) && levels.insert(s.to_bits()) {
                out.push(i);
            }
        }
        // Backfill from the remaining candidates if the cap left slots empty.
        for &(i, _) in &cands {
            if out.len() >= exploit {
                break;
            }
            if !out.contains(&i) {
                out.push(i);
            }
        }
        let small = self.task.space.size() <= self.opts.n_trials as u64;
        let mut attempts = 0;
        while out.len() < n {
            let idx = self.task.space.random_index(rng);
            attempts += 1;
            if small || attempts > 64 || !self.visited.contains(&idx) && !out.contains(&idx) {
                out.push(idx);
            }
        }
        out
    }

    /// Parallel simulated annealing over the scorer: half the chains
    /// restart each round — persisting every chain across model updates
    /// lets one early bad basin capture the whole explorer — alternating
    /// between elites (exploit known-good basins) and fresh random points
    /// (keep exploring). Each chain anneals on its own rayon worker with
    /// its own RNG (seeded serially from the master RNG), and candidates
    /// are merged in chain order, so the proposal is thread-count
    /// independent.
    fn propose_sa(&mut self, rng: &mut StdRng) -> Vec<u64> {
        let mut elite_cursor = 0usize;
        for (i, c) in self.chains.iter_mut().enumerate() {
            if i % 2 == 1 {
                *c = if i % 4 == 1 && !self.best.is_empty() {
                    let pick = self.best[elite_cursor % self.best.len()].0;
                    elite_cursor += 1;
                    pick
                } else {
                    self.task.space.random_index(rng)
                };
            }
        }
        let jobs: Vec<(u64, u64)> = self.chains.iter().map(|&c| (c, rng.next_u64())).collect();
        let (runs, durs) = timed_par_map(jobs, |(start, seed)| self.anneal_chain(start, seed));
        self.cache.record_phase("anneal", durs);
        let mut cands: Vec<(u64, f64)> = Vec::new();
        for ((head, chain_cands), slot) in runs.into_iter().zip(self.chains.iter_mut()) {
            *slot = head;
            cands.extend(chain_cands);
        }
        self.select(cands, self.opts.batch, self.stagnant, rng)
    }

    /// One annealing chain: walks `sa_steps` neighbors under a geometric
    /// cooling schedule, scoring via the memoized lowering cache. Returns
    /// the final chain head and every scored state — the model already
    /// paid for the prediction, so rejected moves still inform the
    /// proposal.
    fn anneal_chain(&self, start: u64, seed: u64) -> (u64, Vec<(u64, f64)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = start;
        let mut s = self.score(c);
        let mut cand: Vec<(u64, f64)> = Vec::new();
        let mut temp = 1.0f64;
        for _ in 0..self.opts.sa_steps {
            let nb = self.task.space.neighbor(c, &mut rng);
            let ns = self.score(nb);
            if ns.is_finite() {
                cand.push((nb, ns));
            }
            let accept = ns > s || rng.random_range(0.0..1.0) < ((ns - s) / temp).exp();
            if accept && ns.is_finite() {
                c = nb;
                s = ns;
            }
            temp *= 0.9;
        }
        if s.is_finite() {
            cand.push((c, s));
        }
        (c, cand)
    }

    /// Evolves a virtual population against the model for
    /// [`EVOLVE_ROUNDS`] between measurements, so each measured batch is
    /// the outcome of a search over the model rather than one breeding
    /// step. Breeding is serial from a per-generation RNG (the child
    /// stream is a pure function of `(seed, generation)`); only scoring
    /// fans out, in proposal order, so the search is thread-count
    /// independent.
    fn evolve(&self, want: usize, rng: &mut StdRng) -> Vec<u64> {
        let pool = (want * 8).max(64);
        let mut grng = StdRng::seed_from_u64(rng.next_u64());
        let space = &self.task.space;
        let mut seen: HashSet<u64> = HashSet::new();
        // Tops `cands` up to `n` with uniform random configs not yet seen.
        let immigrate = |cands: &mut Vec<u64>,
                         seen: &mut HashSet<u64>,
                         n: usize,
                         tries: usize,
                         rng: &mut StdRng| {
            let mut attempts = 0;
            while cands.len() < n && attempts < tries {
                attempts += 1;
                let idx = space.random_index(rng);
                if seen.insert(idx) {
                    cands.push(idx);
                }
            }
        };
        // Round zero: the measured population plus uniform immigrants.
        let mut cands: Vec<u64> = self
            .best
            .iter()
            .map(|&(i, _)| i)
            .filter(|&i| seen.insert(i))
            .collect();
        immigrate(&mut cands, &mut seen, pool, pool * 8, &mut grng);
        let mut scored: Vec<(u64, f64)> = Vec::new();
        for _ in 0..EVOLVE_ROUNDS {
            if cands.is_empty() {
                break;
            }
            let (scores, durs) = timed_par_map(cands.clone(), |idx| self.score(idx));
            self.cache.record_phase("evolve", durs);
            scored.extend(cands.iter().copied().zip(scores));
            // Parents: the best-predicted candidates so far, negated so
            // the tournament's lower-is-better convention applies.
            let mut parents: Vec<(u64, f64)> = scored.iter().map(|&(i, s)| (i, -s)).collect();
            parents.sort_by(|a, b| a.1.total_cmp(&b.1));
            parents.dedup_by_key(|(i, _)| *i);
            parents.truncate(population_size(self.opts));
            cands.clear();
            let mut attempts = 0;
            while cands.len() < pool && attempts < pool * 8 {
                attempts += 1;
                let child = breed(space, &parents, &mut grng);
                if seen.insert(child) {
                    cands.push(child);
                }
            }
            // A slice of uniform immigrants each round keeps fresh
            // regions in play, not only recombinations of the elite.
            immigrate(&mut cands, &mut seen, pool + pool / 4, pool * 2, &mut grng);
        }
        // Immigrants already keep exploring, so the random tail does not
        // widen on plateaus here.
        self.select(scored, want, 0, &mut grng)
    }
}

/// One child: two binary-tournament parents, knob-wise crossover, and a
/// neighbor mutation with probability 0.3. `parents` are
/// `(config, cost)` pairs, lower cost better.
fn breed(space: &ConfigSpace, parents: &[(u64, f64)], rng: &mut StdRng) -> u64 {
    let tournament = |rng: &mut StdRng| {
        let a = &parents[rng.random_range(0..parents.len())];
        let b = &parents[rng.random_range(0..parents.len())];
        if a.1 < b.1 {
            a.0
        } else {
            b.0
        }
    };
    let (pa, pb) = (tournament(rng), tournament(rng));
    let child = crossover(space, pa, pb, rng);
    if rng.random_range(0.0..1.0) < 0.3 {
        space.neighbor(child, rng)
    } else {
        child
    }
}

fn crossover(space: &ConfigSpace, a: u64, b: u64, rng: &mut StdRng) -> u64 {
    let (mut ra, mut rb) = (a % space.size().max(1), b % space.size().max(1));
    let mut out = 0u64;
    let mut mult = 1u64;
    for k in &space.knobs {
        let n = k.options.len() as u64;
        let da = ra % n;
        let db = rb % n;
        ra /= n;
        rb /= n;
        let d = if rng.random_range(0.0..1.0) < 0.5 {
            da
        } else {
            db
        };
        out += d * mult;
        mult *= n;
    }
    out
}
