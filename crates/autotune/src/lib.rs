//! `tvm-autotune` — the ML-based automated schedule optimizer (§5).
//!
//! * [`config`] — schedule-space templates with declared knobs (§5.1);
//! * [`features`] — loop-program features: per-buffer access counts and
//!   reuse ratios per loop level, annotation one-hots (Fig. 13);
//! * [`gbt`] — from-scratch gradient-boosted trees with regression and
//!   pairwise-rank objectives (§5.2);
//! * [`tuner`] — one measurement loop driven by a proposer × scorer pair
//!   per [`TunerKind`] (§5.3):
//!
//!   | Kind | Proposer | Scorer |
//!   |---|---|---|
//!   | `Random` | uniform random | none |
//!   | `Genetic` | population | none |
//!   | `Evolutionary` | population | GBT, rank objective |
//!   | `GbtRank` | simulated annealing | GBT, rank objective |
//!   | `GbtReg` | simulated annealing | GBT, regression objective |
//!   | `Predefined` | random sample | static heuristic |
//!
//! * [`pool`] — the RPC device-pool protocol against simulated devices,
//!   with fault-tolerant scheduling (timeouts, retries, quarantine,
//!   replica verification) under injected chaos (§5.4);
//! * [`db`] — JSON-lines tuning logs backed by a crash-safe,
//!   checksummed append-only journal;
//! * [`sketch`] — automatic sketch generation: structural schedule
//!   derivations enumerated from the tensor-expression DAG itself, no
//!   hand-written template required;
//! * [`transfer`] — journal-backed transfer: seed a new task's search
//!   from its nearest feature-space neighbor's best configurations;
//! * [`error`] — typed errors for the request/measure paths.

pub mod config;
pub mod db;
pub mod error;
pub mod features;
pub mod gbt;
pub mod pool;
pub mod sketch;
pub mod transfer;
pub mod tuner;

pub use config::{ConfigEntity, ConfigSpace, Knob};
pub use db::{Database, DbRecord, Journal, RecoveryReport};
pub use error::TuneError;
pub use features::{
    extract, extract_analysis, invariant_features, signature_distance, task_signature,
    FeatureCache, FEATURE_LEN, INVARIANT_FEATURES, TASK_SIG_LEN,
};
pub use gbt::{
    fit, fit_more, fit_profiled, pairwise_accuracy, FitProfile, Gbt, GbtParams, Objective,
};
pub use pool::{DeviceHealth, JobOutcome, MeasureError, PoolStats, RetryPolicy, RpcMsg, Tracker};
pub use sketch::{sketch_space_size, sketch_task, SketchTask};
pub use transfer::{map_config, warm_start_seeds};
pub use tuner::{
    tune, tune_with, TemplateBuilder, TrialRecord, TuneOptions, TuneResult, TuneStats, TunerKind,
    TuningTask, WorkLog, WorkPhase,
};
