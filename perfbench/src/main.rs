//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload <tune|infer|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs repeats of the workload, each in a fresh child process of this
//! binary and each on inputs from its own seed derived from `--seed`; the
//! number of repeats follows from `--seconds` (see [`perfbench::repeats`]).
//! It then prints a report line with provenance and spreads and, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A traced run pairs
//! an untraced and a traced repeat so it can report the tracing overhead;
//! end-to-end numbers come only from untraced runs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use perfbench::{Repeat, END_TO_END, NOT_APPLICABLE, PER_LAYER, WORKLOADS};
use tvm_json::Value;

/// Set-up time samples per run. Full repeats give one each; the rest come
/// from workers that only set up, each in a fresh process too.
const SETUP_SAMPLES: usize = 15;
/// Worker threads: the host's cores, at most two.
const MAX_THREADS: usize = 2;
/// Scratch directory for the tune journal, inside the working directory.
const SCRATCH: &str = ".perfbench-tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-only" => out.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn threads() -> usize {
    nproc().min(MAX_THREADS)
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One repeat in this process; prints the [`Repeat`] as a JSON line.
fn worker(a: &Args) -> ExitCode {
    if a.trace {
        tvm_obs::set_enabled(true);
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads())
        .build()
        .expect("thread pool");
    let mut rep = pool.install(|| match a.workload.as_str() {
        "tune" => {
            let dir = PathBuf::from(SCRATCH);
            let rep = match std::fs::create_dir_all(&dir) {
                Ok(()) => perfbench::tune::run(a.seed, a.trace, a.setup_only, &dir),
                Err(e) => {
                    let mut r = Repeat::default();
                    r.record(Some(format!("scratch dir: {e}")));
                    r
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            rep
        }
        "infer" => perfbench::infer::run(a.seed, a.trace, a.setup_only),
        _ => perfbench::serve::run(a.seed, a.trace, a.setup_only),
    });
    rep.metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}

/// Runs one repeat (or only its set-up) in a fresh child process.
fn spawn(a: &Args, seed: u64, traced: bool, setup_only: bool) -> Result<Repeat, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["worker", "--workload", &a.workload])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(setup_only.then_some("--setup-only"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    tvm_json::from_str(line)
        .ok()
        .as_ref()
        .and_then(Repeat::from_json)
        .ok_or_else(|| format!("unreadable worker output: {line}"))
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range over the median (the spread the report records).
fn spread(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let pos = p * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q(0.75) - q(0.25)) / m.abs()
    }
}

/// Median per key over the repeats' maps.
fn medians<'a>(
    maps: impl Iterator<Item = &'a BTreeMap<String, f64>>,
) -> BTreeMap<String, (f64, f64)> {
    let mut by_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            by_key.entry(k.clone()).or_default().push(*v);
        }
    }
    by_key
        .into_iter()
        .map(|(k, v)| (k, (median(&v), spread(&v))))
        .collect()
}

/// The commit of the working directory's own `.git`, if it has one (the
/// lookup never walks up into an enclosing repository).
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object([("value", Value::from(value)), ("unit", Value::from(unit))])
}

fn run(a: &Args) -> Result<(), String> {
    let start = Instant::now();
    // Repeat `r` draws its inputs from its own seed, derived from `--seed`;
    // a traced run pairs one untraced and one traced repeat on the same
    // inputs, so their difference is the tracing overhead.
    let (n, traced_n) = if a.trace {
        (1, 1)
    } else {
        (perfbench::repeats(&a.workload, a.seconds), 0)
    };
    let seed = |r: usize| perfbench::repeat_seed(a.seed, r);
    let plain: Vec<Repeat> = (0..n)
        .map(|r| spawn(a, seed(r), false, false))
        .collect::<Result<_, _>>()?;
    let traced: Vec<Repeat> = (0..traced_n)
        .map(|r| spawn(a, seed(r), true, false))
        .collect::<Result<_, _>>()?;
    let mut setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(spawn(a, seed(0), false, true)?.setup_s);
    }

    let all: Vec<&Repeat> = plain.iter().chain(&traced).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let wrong: u64 = all.iter().map(|r| r.wrong).sum();
    let mut errors: Vec<&str> = all
        .iter()
        .flat_map(|r| r.errors.iter().map(String::as_str))
        .collect();
    errors.sort_unstable();
    errors.dedup();

    let mut e2e: BTreeMap<String, (f64, f64)> = medians(plain.iter().map(|r| &r.metrics));
    e2e.insert("setup_s".into(), (median(&setups), spread(&setups)));
    // Per repeat, failed over attempted with half a failure added to each
    // count (the Jeffreys estimate): a repeat without failures reads a
    // small positive share, and one new failure at least triples it.
    let shares: Vec<f64> = plain
        .iter()
        .map(|r| (r.failed as f64 + 0.5) / (r.attempted as f64 + 1.0))
        .collect();
    e2e.insert("fail_share".into(), (median(&shares), spread(&shares)));

    // (name, value, unit, measured/modelled, spread) per printed metric.
    let rows: Vec<(&str, f64, &str, Option<&str>, f64)> = if a.trace {
        let mut layer = medians(traced.iter().map(|r| &r.layers));
        let walls = |rs: &[Repeat]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        let (untraced_wall, traced_wall) = (walls(&plain), walls(&traced));
        layer.insert("trace.untraced_wall_s".into(), (untraced_wall, 0.0));
        layer.insert(
            "trace.overhead_s".into(),
            (traced_wall - untraced_wall, 0.0),
        );
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let (v, s) = layer.get(*name).copied().unwrap_or((0.0, 0.0));
                (*name, v, *unit, None, s)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|def| match e2e.get(def.name) {
                Some(&(v, s)) if def.workloads.contains(&a.workload.as_str()) => {
                    (def.name, v, def.unit, Some(def.kind.label()), s)
                }
                _ => (def.name, NOT_APPLICABLE, def.unit, Some("n/a"), 0.0),
            })
            .collect()
    };
    let mut out_metrics = BTreeMap::new();
    let mut report_metrics = BTreeMap::new();
    for (name, v, unit, kind, s) in rows {
        out_metrics.insert(name.to_string(), metric(v, unit));
        let mut row = vec![
            ("value", Value::from(v)),
            ("unit", Value::from(unit)),
            ("spread", Value::from(s)),
        ];
        row.extend(kind.map(|k| ("kind", Value::from(k))));
        report_metrics.insert(name.to_string(), Value::object(row));
    }

    // Figures before host-speed scaling, and the host speed itself (see
    // `perfbench::hostspeed`), for the report line only.
    let unscaled: BTreeMap<String, Value> = e2e
        .iter()
        .filter_map(|(k, &(v, s))| {
            let name = k.strip_prefix("unscaled.")?;
            let row = [("value", Value::from(v)), ("spread", Value::from(s))];
            Some((name.to_string(), Value::object(row)))
        })
        .collect();

    let correct = wrong == 0;
    let report = Value::object([
        ("workload", Value::from(a.workload.as_str())),
        ("seed", Value::from(a.seed)),
        (
            "mode",
            Value::from(if a.trace { "traced" } else { "untraced" }),
        ),
        ("nproc", Value::from(nproc() as u64)),
        ("threads", Value::from(threads() as u64)),
        ("commit", Value::from(commit())),
        ("repeats", Value::from(plain.len() as u64)),
        ("traced_repeats", Value::from(traced.len() as u64)),
        ("seconds", Value::from(start.elapsed().as_secs_f64())),
        (
            "spread",
            Value::from("interquartile range over median, across repeats"),
        ),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("wrong_outputs", Value::from(wrong)),
        (
            "errors",
            Value::Array(errors.iter().map(|e| Value::from(*e)).collect()),
        ),
        ("metrics", Value::Object(report_metrics)),
        ("unscaled", Value::Object(unscaled)),
    ]);
    println!("report {report}");
    let result = Value::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::Object(out_metrics)),
    ]);
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (is_worker, rest) = match argv.first().map(String::as_str) {
        Some("worker") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if is_worker {
        return worker(&args);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
