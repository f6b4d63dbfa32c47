//! Tuning-throughput benchmark: wall-clock and device-pool scaling of the
//! parallel autotuner on the Fig. 12 workloads (matmul + conv2d C7).
//!
//! For each worker count the same tuning run is repeated under a rayon
//! pool of that size; the run must produce a bit-for-bit identical trial
//! history and best cost at every worker count (the parallel-tuning
//! determinism contract) and the process exits non-zero if it does not.
//! Measurement scaling is then reported two ways:
//!
//! * **wall-clock** trials/sec of the host doing lowering + simulation +
//!   model fitting — honest numbers for however many cores the host
//!   actually has (CI containers often pin this to one). Adding workers
//!   must never regress this number (no-degradation gate);
//! * **virtual-lane thread scaling** from replaying the 1-thread run's
//!   per-item work log (measure/lower/anneal batches) onto N worker
//!   lanes — this measures the tuner's parallel fraction (lock
//!   contention, serial residue) independent of host core count, and
//!   gates `thread_speedup_4x` at 2x (quick) / 3x (full);
//! * **device-pool** throughput from replaying the measured configs
//!   through [`Tracker::run_batch`] on fleets of 1/2/4 simulated devices
//!   — the §5.4 scaling mechanism, computed from the tracker's exact
//!   per-device busy-time accounting and therefore host-independent.
//!
//! Writes `results/BENCH_tuning.json`. `--quick` shrinks the trial
//! budget and drops the 8-thread row for CI.
//!
//! `--robustness` instead benchmarks the fault-tolerance layer: the same
//! tuning run is repeated on a 4-device pool under escalating chaos
//! (fault-free, flaky fleet, three dead devices) and must converge to the
//! identical best config every time; the fleet-makespan overhead of
//! retries/timeouts/re-measurement is recorded to
//! `results/BENCH_robustness.json`.

use std::time::Instant;

use tvm_autotune::{
    pool::Tracker, tune, tune_with, RetryPolicy, TuneOptions, TuneResult, TuneStats, TunerKind,
    TuningTask, WorkLog,
};
use tvm_ir::DType;
use tvm_json::Value;
use tvm_sim::{titanx, FaultPlan, FaultRates};
use tvm_topi::{self as topi, DenseWorkload};

struct RunRow {
    threads: usize,
    wall_s: f64,
    best_ms: f64,
    history: Vec<(u64, f64)>,
    stats: TuneStats,
    work: WorkLog,
}

/// Makespan of scheduling `durs` onto `lanes` parallel lanes with the
/// greedy longest-processing-time rule: items sorted by decreasing
/// duration, each placed on the currently least-loaded lane.
fn lane_makespan(durs: &[f64], lanes: usize) -> f64 {
    let mut sorted: Vec<f64> = durs.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let mut load = vec![0.0f64; lanes.max(1)];
    for d in sorted {
        let min = load
            .iter_mut()
            .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
            .expect("non-empty lanes");
        *min += d;
    }
    load.iter().cloned().fold(0.0, f64::max)
}

/// Estimated wall time of the run replayed on `lanes` worker lanes: the
/// serial residue plus each recorded phase's lane makespan. Phases are
/// barriers (the tuner joins every batch before proposing the next), so
/// makespans add.
fn replay_wall_s(serial_s: f64, work: &WorkLog, lanes: usize) -> f64 {
    serial_s
        + work
            .phases
            .iter()
            .map(|p| lane_makespan(&p.durs_s, lanes))
            .sum::<f64>()
}

fn tune_at(threads: usize, task: &TuningTask, opts: &TuneOptions) -> (TuneResult, f64) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let start = Instant::now();
    let r = pool.install(|| tune(task, opts, TunerKind::GbtRank));
    (r, start.elapsed().as_secs_f64())
}

/// Replays the run's distinct measured configs through the device pool on a
/// fleet of `n_devices`, returning the fleet makespan in simulated ms.
fn pool_makespan(task: &TuningTask, history: &[(u64, f64)], n_devices: usize) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let funcs: Vec<_> = history
        .iter()
        .filter(|(idx, cost)| cost.is_finite() && seen.insert(*idx))
        .filter_map(|(idx, _)| (task.builder)(&task.space.get(*idx)).ok())
        .collect();
    let refs: Vec<&tvm_ir::LoweredFunc> = funcs.iter().collect();
    let mut tracker = Tracker::new((0..n_devices).map(|_| task.target.clone()).collect());
    tracker.set_sim_options(task.sim_opts.clone());
    tracker.run_batch(task.target.name(), &refs);
    tracker.makespan_ms()
}

fn bench_workload(
    name: &str,
    task: &TuningTask,
    opts: &TuneOptions,
    threads: &[usize],
    min_speedup_4x: f64,
    exit_ok: &mut bool,
) -> Value {
    println!(
        "== {name}: {} trials, threads {threads:?} ==",
        opts.n_trials
    );
    let mut rows: Vec<RunRow> = Vec::new();
    for &t in threads {
        let (r, wall_s) = tune_at(t, task, opts);
        println!(
            "  threads {t}: {:.2}s wall, {:.1} trials/s, best {:.4} ms, \
             {} lowerings, {} plan hits / {} misses, {} lock waits ({} us)",
            wall_s,
            r.history.len() as f64 / wall_s,
            r.best_ms,
            r.stats.lowerings,
            r.stats.plan_hits,
            r.stats.plan_misses,
            r.stats.lock_waits,
            r.stats.lock_wait_ns / 1_000,
        );
        rows.push(RunRow {
            threads: t,
            wall_s,
            best_ms: r.best_ms,
            history: r
                .history
                .iter()
                .map(|h| (h.config_index, h.cost_ms))
                .collect(),
            stats: r.stats,
            work: r.work,
        });
    }
    let base = &rows[0];
    let mut parity = true;
    for row in &rows[1..] {
        if row.history != base.history || row.best_ms != base.best_ms {
            parity = false;
            *exit_ok = false;
            eprintln!(
                "PARITY FAILURE on {name}: {} threads diverges from {} threads \
                 (best {:.6} vs {:.6})",
                row.threads, base.threads, row.best_ms, base.best_ms
            );
        }
    }
    // No-degradation gate: adding rayon workers must never make the run
    // slower on the real host, whatever its core count. 0.9 tolerates
    // scheduler noise; the historical conv2d regression sat at 0.76.
    let base_tps = base.history.len() as f64 / base.wall_s;
    for row in &rows[1..] {
        let tps = row.history.len() as f64 / row.wall_s;
        if tps < 0.9 * base_tps {
            *exit_ok = false;
            eprintln!(
                "THREAD SCALING REGRESSION on {name}: {} threads ran at {tps:.1} \
                 trials/s vs {base_tps:.1} at 1 thread ({:.2}x)",
                row.threads,
                tps / base_tps
            );
        }
    }
    // Virtual-lane thread scaling from the 1-thread run's work log: the
    // per-item costs are measured uncontended, then replayed onto N lanes
    // (greedy LPT per batch). This isolates the tuner's parallel fraction
    // from however many cores the host actually has, mirroring the
    // device-pool replay below.
    let measured_s: f64 = base
        .work
        .phases
        .iter()
        .map(|p| p.durs_s.iter().sum::<f64>())
        .sum();
    let serial_s = (base.wall_s - measured_s).max(0.0);
    let replay_t1 = replay_wall_s(serial_s, &base.work, 1);
    let lane_rows: Vec<(usize, f64)> = threads
        .iter()
        .map(|&n| (n, replay_wall_s(serial_s, &base.work, n)))
        .collect();
    let thread_speedup_4 = lane_rows
        .iter()
        .find(|(n, _)| *n == 4)
        .map(|(_, t)| replay_t1 / t)
        .unwrap_or(1.0);
    for (n, t) in &lane_rows {
        println!(
            "  lanes {n}: est {:.2}s, {:.1} trials/s ({:.2}x)",
            t,
            base.history.len() as f64 / t,
            replay_t1 / t
        );
    }
    if thread_speedup_4 < min_speedup_4x {
        *exit_ok = false;
        eprintln!(
            "THREAD SCALING FAILURE on {name}: {thread_speedup_4:.2}x at 4 lanes \
             (< {min_speedup_4x:.1}x; serial residue {serial_s:.3}s of {:.3}s wall)",
            base.wall_s
        );
    }
    // Device-pool scaling on the measured configs (host-independent).
    let fleets = [1usize, 2, 4];
    let makespans: Vec<f64> = fleets
        .iter()
        .map(|&n| pool_makespan(task, &base.history, n))
        .collect();
    let pool_speedup_4 = makespans[0] / makespans[2];
    println!(
        "  device pool: makespan {:.3}/{:.3}/{:.3} ms on 1/2/4 devices ({:.2}x at 4)",
        makespans[0], makespans[1], makespans[2], pool_speedup_4
    );
    if pool_speedup_4 < 2.0 {
        *exit_ok = false;
        eprintln!("POOL SCALING FAILURE on {name}: {pool_speedup_4:.2}x at 4 devices (< 2x)");
    }
    Value::object([
        ("workload", Value::Str(name.into())),
        ("trials", Value::Int(opts.n_trials as i64)),
        ("parity_ok", Value::Bool(parity)),
        ("best_ms", Value::Float(base.best_ms)),
        (
            "runs",
            Value::Array(
                rows.iter()
                    .map(|r| {
                        Value::object([
                            ("threads", Value::Int(r.threads as i64)),
                            ("wall_s", Value::Float(r.wall_s)),
                            (
                                "trials_per_sec",
                                Value::Float(r.history.len() as f64 / r.wall_s),
                            ),
                            ("best_ms", Value::Float(r.best_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "thread_scaling",
            Value::object([
                ("mode", Value::Str("virtual_lane_replay".into())),
                ("serial_s", Value::Float(serial_s)),
                (
                    "lanes",
                    Value::Array(
                        lane_rows
                            .iter()
                            .map(|&(n, t)| {
                                Value::object([
                                    ("threads", Value::Int(n as i64)),
                                    ("est_wall_s", Value::Float(t)),
                                    (
                                        "trials_per_sec",
                                        Value::Float(base.history.len() as f64 / t),
                                    ),
                                    ("speedup", Value::Float(replay_t1 / t)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("thread_speedup_4x", Value::Float(thread_speedup_4)),
        (
            "counters",
            Value::object([
                ("lowerings", Value::Int(base.stats.lowerings as i64)),
                ("simulations", Value::Int(base.stats.simulations as i64)),
                ("lookups", Value::Int(base.stats.lookups as i64)),
                ("plan_hits", Value::Int(base.stats.plan_hits as i64)),
                ("plan_misses", Value::Int(base.stats.plan_misses as i64)),
                ("intern_hits", Value::Int(base.stats.intern_hits as i64)),
                ("intern_misses", Value::Int(base.stats.intern_misses as i64)),
                ("lock_waits", Value::Int(base.stats.lock_waits as i64)),
                ("lock_wait_ns", Value::Int(base.stats.lock_wait_ns as i64)),
            ]),
        ),
        (
            "device_pool",
            Value::Array(
                fleets
                    .iter()
                    .zip(&makespans)
                    .map(|(&n, &ms)| {
                        Value::object([
                            ("devices", Value::Int(n as i64)),
                            ("makespan_ms", Value::Float(ms)),
                            (
                                "trials_per_sec",
                                Value::Float(1000.0 * base.history.len() as f64 / ms),
                            ),
                            ("speedup", Value::Float(makespans[0] / ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pool_speedup_4x", Value::Float(pool_speedup_4)),
    ])
}

/// Runs a workload's gates, retrying once on failure. The wall-clock gates
/// (no-degradation, replay speedup) measure a shared host; a single retry
/// filters scheduler noise while a real regression still fails both
/// attempts. Deterministic failures (parity) fail identically on retry.
fn bench_workload_retrying(
    name: &str,
    task: &TuningTask,
    opts: &TuneOptions,
    threads: &[usize],
    min_speedup_4x: f64,
    exit_ok: &mut bool,
) -> Value {
    let mut first_ok = true;
    let first = bench_workload(name, task, opts, threads, min_speedup_4x, &mut first_ok);
    if first_ok {
        return first;
    }
    println!("  retrying {name}: first attempt failed a gate (could be host noise)");
    let mut second_ok = true;
    let second = bench_workload(name, task, opts, threads, min_speedup_4x, &mut second_ok);
    if !second_ok {
        *exit_ok = false;
    }
    second
}

/// One chaos scenario for the robustness benchmark.
struct Scenario {
    name: &'static str,
    plan: FaultPlan,
}

fn robustness_scenarios() -> Vec<Scenario> {
    let mut three_dead = FaultPlan::none();
    three_dead.kill_from(1, 0).kill_from(2, 0).kill_from(3, 0);
    vec![
        Scenario {
            name: "fault_free",
            plan: FaultPlan::none(),
        },
        Scenario {
            name: "flaky_fleet",
            plan: FaultPlan::seeded(
                1234,
                FaultRates {
                    crash: 0.0,
                    hang: 0.05,
                    transient: 0.10,
                    noise: 0.05,
                    noise_factor: 8.0,
                },
            ),
        },
        Scenario {
            name: "three_devices_dead",
            plan: three_dead,
        },
    ]
}

/// Fault-tolerance overhead benchmark: identical tuning run on a 4-device
/// pool under escalating chaos; convergence must be bit-for-bit invariant
/// and the makespan overhead is the price of the retries.
fn bench_robustness(quick: bool) -> bool {
    let opts = TuneOptions {
        n_trials: if quick { 32 } else { 64 },
        batch: 8,
        sa_steps: if quick { 10 } else { 40 },
        sa_chains: if quick { 8 } else { 16 },
        seed: 42,
        warm_start: Vec::new(),
    };
    let target = titanx();
    let task = topi::dense_task(
        DenseWorkload {
            m: 64,
            n: 512,
            k: 512,
            dtype: DType::float32(),
        },
        target,
    );
    println!(
        "== robustness: dense_64x512x512, {} trials, 4 devices ==",
        opts.n_trials
    );
    let mut ok = true;
    // Fault-free reference: (trial history, best cost, fleet makespan).
    type Baseline = (Vec<(u64, f64)>, f64, f64);
    let mut baseline: Option<Baseline> = None;
    let mut rows: Vec<Value> = Vec::new();
    for sc in robustness_scenarios() {
        let mut tracker = Tracker::new(vec![task.target.clone(); 4]);
        tracker.set_sim_options(task.sim_opts.clone());
        tracker.set_fault_plan(sc.plan);
        // Timeout budget sized to the workload (sub-ms kernels): hangs
        // charge ~50ms of device time instead of the 10s default, so the
        // overhead column reflects scheduling cost rather than one
        // enormous timeout constant.
        tracker.set_retry_policy(RetryPolicy {
            timeout_ms: 50.0,
            ..RetryPolicy::fault_tolerant()
        });
        let start = Instant::now();
        let r =
            tune_with(&task, &opts, TunerKind::GbtRank, Some(&mut tracker), None).expect("tunes");
        let wall_s = start.elapsed().as_secs_f64();
        let makespan = tracker.makespan_ms();
        let history: Vec<(u64, f64)> = r
            .history
            .iter()
            .map(|h| (h.config_index, h.cost_ms))
            .collect();
        let mut parity = true;
        let overhead = match &baseline {
            None => {
                baseline = Some((history.clone(), r.best_ms, makespan));
                1.0
            }
            Some((base_hist, base_best, base_makespan)) => {
                if history != *base_hist || r.best_ms != *base_best {
                    parity = false;
                    ok = false;
                    eprintln!(
                        "ROBUSTNESS PARITY FAILURE on {}: best {:.6} vs fault-free {:.6}",
                        sc.name, r.best_ms, base_best
                    );
                }
                makespan / base_makespan
            }
        };
        if r.stats.pool.failed_jobs > 0 {
            ok = false;
            eprintln!(
                "ROBUSTNESS JOB LOSS on {}: {} jobs failed permanently",
                sc.name, r.stats.pool.failed_jobs
            );
        }
        let p = &r.stats.pool;
        let dead = r.stats.device_health.iter().filter(|h| h.dead).count();
        println!(
            "  {:<20} best {:.4} ms, makespan {:.1} ms ({overhead:.2}x), \
             {} retries / {} timeouts / {} quarantines, {dead} dead",
            sc.name, r.best_ms, makespan, p.retries, p.timeouts, p.quarantines
        );
        rows.push(Value::object([
            ("scenario", Value::Str(sc.name.into())),
            ("parity_ok", Value::Bool(parity)),
            ("best_ms", Value::Float(r.best_ms)),
            ("wall_s", Value::Float(wall_s)),
            ("makespan_ms", Value::Float(makespan)),
            ("overhead_x", Value::Float(overhead)),
            ("attempts", Value::Int(p.attempts as i64)),
            ("retries", Value::Int(p.retries as i64)),
            ("timeouts", Value::Int(p.timeouts as i64)),
            ("transient_errors", Value::Int(p.transient_errors as i64)),
            ("crash_faults", Value::Int(p.crash_faults as i64)),
            ("quarantines", Value::Int(p.quarantines as i64)),
            ("readmissions", Value::Int(p.readmissions as i64)),
            ("remeasured_jobs", Value::Int(p.remeasured_jobs as i64)),
            ("failed_jobs", Value::Int(p.failed_jobs as i64)),
            ("backoff_ms", Value::Float(p.backoff_ms)),
            ("dead_devices", Value::Int(dead as i64)),
        ]));
    }
    let doc = Value::object([
        ("bench", Value::Str("fault_tolerance".into())),
        ("quick", Value::Bool(quick)),
        ("devices", Value::Int(4)),
        ("trials", Value::Int(opts.n_trials as i64)),
        ("seed", Value::Int(opts.seed as i64)),
        ("parity_ok", Value::Bool(ok)),
        ("scenarios", Value::Array(rows)),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(
        "results/BENCH_robustness.json",
        tvm_json::to_string(&doc) + "\n",
    )
    .expect("write results/BENCH_robustness.json");
    println!("wrote results/BENCH_robustness.json (parity_ok = {ok})");
    ok
}

/// Trials a run needs to match `target_ms` (1-based), per its best-curve.
fn trials_to_reach(r: &TuneResult, target_ms: f64) -> Option<usize> {
    r.best_curve.iter().position(|&c| c <= target_ms).map(|i| i + 1)
}

fn curve_json(r: &TuneResult) -> Value {
    Value::Array(r.best_curve.iter().map(|&c| Value::Float(c)).collect())
}

/// Sketch-vs-template benchmark: on each Fig. 12 workload, the generated
/// sketch space searched by the evolutionary tuner must match or beat the
/// hand-written template searched by SA+GBT under the same trial budget,
/// and a transfer-warmed run (seeded from a smaller donor workload's
/// journal) must reach the cold run's best in no more trials. Curves are
/// merged into `results/BENCH_tuning.json` under `"sketch"`.
fn bench_sketch(quick: bool) -> bool {
    let opts = TuneOptions {
        n_trials: if quick { 32 } else { 64 },
        batch: 8,
        sa_steps: if quick { 10 } else { 40 },
        sa_chains: if quick { 8 } else { 16 },
        seed: 42,
        warm_start: Vec::new(),
    };
    let target = titanx();
    let dense_w = DenseWorkload {
        m: 64,
        n: 512,
        k: 512,
        dtype: DType::float32(),
    };
    let dense_donor_w = DenseWorkload {
        m: 32,
        n: 256,
        k: 256,
        dtype: DType::float32(),
    };
    let conv_w = topi::resnet18_convs()[6];
    let conv_donor_w = topi::Conv2dWorkload {
        batch: 1,
        size: 14,
        in_c: 128,
        out_c: 128,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    struct Case {
        name: &'static str,
        template: TuningTask,
        sketch: TuningTask,
        donor: TuningTask,
    }
    let cases = [
        Case {
            name: "dense_64x512x512",
            template: topi::dense_task(dense_w.clone(), target.clone()),
            sketch: topi::dense_sketch_task(dense_w, target.clone()).expect("dense sketches"),
            donor: topi::dense_sketch_task(dense_donor_w, target.clone())
                .expect("donor dense sketches"),
        },
        Case {
            name: "resnet18_C7_conv2d",
            template: topi::conv2d_task(conv_w, DType::float32(), target.clone()),
            sketch: topi::conv2d_sketch_task(conv_w, DType::float32(), target.clone())
                .expect("conv sketches"),
            donor: topi::conv2d_sketch_task(conv_donor_w, DType::float32(), target.clone())
                .expect("donor conv sketches"),
        },
    ];
    let mut ok = true;
    let mut rows: Vec<Value> = Vec::new();
    for case in cases {
        println!(
            "== sketch {}: {} trials, template space {} vs sketch space {} ==",
            case.name,
            opts.n_trials,
            case.template.space.size(),
            case.sketch.space.size()
        );
        let template = tune(&case.template, &opts, TunerKind::GbtRank);
        let cold = tune(&case.sketch, &opts, TunerKind::Evolutionary);
        // Warm run: the donor's journal (trials + signature) seeds the
        // target's initial population.
        let path = std::env::temp_dir().join(format!("tvm_rs_bench_sketch_{}.jsonl", case.name));
        let _ = std::fs::remove_file(&path);
        let mut j = tvm_autotune::Journal::create(&path).expect("journal");
        tune_with(&case.donor, &opts, TunerKind::Evolutionary, None, Some(&mut j))
            .expect("donor tunes");
        let warm = tune_with(&case.sketch, &opts, TunerKind::Evolutionary, None, Some(&mut j))
            .expect("warmed tunes");
        drop(j);
        let _ = std::fs::remove_file(&path);
        let cold_reach = trials_to_reach(&cold, cold.best_ms).unwrap_or(opts.n_trials);
        let warm_reach = trials_to_reach(&warm, cold.best_ms);
        println!(
            "  template best {:.4} ms | sketch best {:.4} ms (warm {:.4} ms); \
             cold reached its best at trial {cold_reach}, warm matched it at {}",
            template.best_ms,
            cold.best_ms,
            warm.best_ms,
            warm_reach.map_or("never".into(), |t| t.to_string()),
        );
        if cold.best_ms > template.best_ms {
            ok = false;
            eprintln!(
                "SKETCH PARITY FAILURE on {}: sketch {:.4} ms worse than template {:.4} ms \
                 at {} trials",
                case.name, cold.best_ms, template.best_ms, opts.n_trials
            );
        }
        match warm_reach {
            Some(t) if t <= cold_reach => {}
            _ => {
                ok = false;
                eprintln!(
                    "TRANSFER FAILURE on {}: warm start matched the cold best at {:?} trials \
                     vs cold {cold_reach}",
                    case.name, warm_reach
                );
            }
        }
        rows.push(Value::object([
            ("workload", Value::Str(case.name.into())),
            ("trials", Value::Int(opts.n_trials as i64)),
            ("template_space", Value::Int(case.template.space.size() as i64)),
            ("sketch_space", Value::Int(case.sketch.space.size() as i64)),
            ("template_best_ms", Value::Float(template.best_ms)),
            ("sketch_best_ms", Value::Float(cold.best_ms)),
            ("sketch_warm_best_ms", Value::Float(warm.best_ms)),
            ("cold_trials_to_best", Value::Int(cold_reach as i64)),
            (
                "warm_trials_to_cold_best",
                warm_reach.map_or(Value::Null, |t| Value::Int(t as i64)),
            ),
            ("template_curve_ms", curve_json(&template)),
            ("sketch_curve_ms", curve_json(&cold)),
            ("sketch_warm_curve_ms", curve_json(&warm)),
        ]));
    }
    let sketch_doc = Value::object([
        ("quick", Value::Bool(quick)),
        ("seed", Value::Int(opts.seed as i64)),
        ("parity_ok", Value::Bool(ok)),
        ("workloads", Value::Array(rows)),
    ]);
    // Merge under "sketch" so a prior throughput run's numbers survive.
    std::fs::create_dir_all("results").expect("results dir");
    let doc = match std::fs::read_to_string("results/BENCH_tuning.json")
        .ok()
        .and_then(|t| tvm_json::from_str(&t).ok())
    {
        Some(Value::Object(mut m)) => {
            m.insert("sketch".into(), sketch_doc);
            Value::Object(m)
        }
        _ => Value::object([
            ("bench", Value::Str("tuning_throughput".into())),
            ("sketch", sketch_doc),
        ]),
    };
    std::fs::write(
        "results/BENCH_tuning.json",
        tvm_json::to_string(&doc) + "\n",
    )
    .expect("write results/BENCH_tuning.json");
    println!("wrote results/BENCH_tuning.json sketch section (parity_ok = {ok})");
    ok
}

fn main() {
    let flags = tvm_bench::parse_flags(
        "usage: tune_bench [--quick] [--robustness | --sketch]",
        &["--quick", "--robustness", "--sketch"],
    );
    let quick = flags.contains(&"--quick");
    if flags.contains(&"--robustness") {
        if !bench_robustness(quick) {
            std::process::exit(1);
        }
        return;
    }
    if flags.contains(&"--sketch") {
        if !bench_sketch(quick) {
            std::process::exit(1);
        }
        return;
    }
    let threads: Vec<usize> = if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let min_speedup_4x = if quick { 2.0 } else { 3.0 };
    let opts = TuneOptions {
        n_trials: if quick { 32 } else { 64 },
        batch: 8,
        sa_steps: if quick { 10 } else { 40 },
        sa_chains: if quick { 8 } else { 16 },
        seed: 42,
        warm_start: Vec::new(),
    };
    let mut ok = true;
    let target = titanx();
    let dense = topi::dense_task(
        DenseWorkload {
            m: 64,
            n: 512,
            k: 512,
            dtype: DType::float32(),
        },
        target.clone(),
    );
    let conv = topi::conv2d_task(topi::resnet18_convs()[6], DType::float32(), target);
    let workloads = vec![
        bench_workload_retrying(
            "dense_64x512x512",
            &dense,
            &opts,
            &threads,
            min_speedup_4x,
            &mut ok,
        ),
        bench_workload_retrying(
            "resnet18_C7_conv2d",
            &conv,
            &opts,
            &threads,
            min_speedup_4x,
            &mut ok,
        ),
    ];
    let doc = Value::object([
        ("bench", Value::Str("tuning_throughput".into())),
        ("quick", Value::Bool(quick)),
        (
            "threads",
            Value::Array(threads.iter().map(|&t| Value::Int(t as i64)).collect()),
        ),
        ("seed", Value::Int(opts.seed as i64)),
        ("parity_ok", Value::Bool(ok)),
        ("workloads", Value::Array(workloads)),
    ]);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(
        "results/BENCH_tuning.json",
        tvm_json::to_string(&doc) + "\n",
    )
    .expect("write results/BENCH_tuning.json");
    println!("wrote results/BENCH_tuning.json (parity_ok = {ok})");
    if !ok {
        std::process::exit(1);
    }
}
