//! `tvm-prof` — the end-to-end observability harness: compiles a small
//! CNN with compile-pass tracing enabled, runs it under the graph
//! executor's per-op profiler, and writes a Chrome `trace_event` file to
//! `results/trace.json` plus a per-op breakdown table to stdout.
//!
//! The run doubles as a self-check (the process exits non-zero on
//! violation):
//!
//! * results with profiling enabled are bit-for-bit identical to a
//!   profiling-off executor;
//! * the profiling-off hot path is not measurably slower than the
//!   profiled one (i.e. disabling profiling really removes the work);
//! * the profiler's per-op simulated-cycle sum agrees with the
//!   independently recomputed end-to-end figure within 1%;
//! * the emitted trace is well-formed JSON with a nonzero number of
//!   spans covering both compilation and execution.
//!
//! `--quick` shrinks the workload and repeat count for CI.

use std::time::Instant;

use tvm_bench::profiling::{build_demo, run_once, sim_cycles};
use tvm_json::Value;
use tvm_runtime::GraphExecutor;
use tvm_sim::titanx;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let quick =
        tvm_bench::parse_flags("usage: tvm-prof [--quick]", &["--quick"]).contains(&"--quick");
    let repeats = if quick { 5 } else { 15 };
    let target = titanx();
    let mut ok = true;

    // Compile with pass tracing on: `te::lower` stage spans land in the
    // global registry alongside the later execution spans.
    tvm_obs::Registry::global().reset();
    tvm_obs::set_enabled(true);
    let module = build_demo(&target, quick);
    let n_kernels = module.kernels.len();
    let e2e_cycles = sim_cycles(&module, &target);
    println!(
        "compiled demo graph: {n_kernels} kernels for {}\n",
        target.name()
    );

    // 0. The module the profiler is about to time must pass the
    // graph-layer static verifiers (memory-plan safety, fusion legality,
    // cross-layer slot contracts).
    let verdict = module.verify();
    if verdict.has_errors() {
        println!(
            "FAIL: graph verification rejected the module:\n{}",
            verdict.render()
        );
        ok = false;
    } else {
        println!(
            "ok: graph verification clean ({} groups, {} slot-contract checks proven)",
            verdict.groups_checked, verdict.contracts_proven
        );
    }

    // Profiled executor.
    let mut prof_ex = GraphExecutor::new(module);
    prof_ex.enable_profiling();
    let mut prof_out = Vec::new();
    let enabled_times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            prof_out = run_once(&mut prof_ex, quick);
            t.elapsed().as_secs_f64()
        })
        .collect();
    let prof = prof_ex.profiler().expect("profiling enabled");
    println!("{}", prof.table());
    let prof_cycles = prof.total_cycles();
    tvm_obs::set_enabled(false);

    // Profiling-off executor (observability fully disabled).
    let mut plain_ex = GraphExecutor::new(build_demo(&target, quick));
    let mut plain_out = Vec::new();
    let disabled_times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            plain_out = run_once(&mut plain_ex, quick);
            t.elapsed().as_secs_f64()
        })
        .collect();

    // 1. Bit-for-bit identical results.
    if prof_out != plain_out {
        println!("FAIL: profiled outputs differ from unprofiled outputs");
        ok = false;
    } else {
        println!("ok: profiled run reproduces unprofiled outputs bit-for-bit");
    }

    // 2. The disabled hot path does no profiling work: it must not be
    // measurably slower than the profiled path (1.5x headroom for noise).
    let (dis_med, en_med) = (median(disabled_times), median(enabled_times));
    if dis_med > en_med * 1.5 {
        println!(
            "FAIL: profiling-off run ({:.2} ms) slower than profiled run ({:.2} ms)",
            dis_med * 1e3,
            en_med * 1e3
        );
        ok = false;
    } else {
        println!(
            "ok: profiling-off median {:.2} ms vs profiled {:.2} ms",
            dis_med * 1e3,
            en_med * 1e3
        );
    }

    // 3. Per-op cycle sum vs the independent end-to-end figure.
    let drift = (prof_cycles - e2e_cycles).abs() / e2e_cycles.max(1.0);
    if drift > 0.01 {
        println!(
            "FAIL: per-op cycle sum {prof_cycles:.0} drifts {:.2}% from end-to-end {e2e_cycles:.0}",
            drift * 100.0
        );
        ok = false;
    } else {
        println!(
            "ok: per-op cycle sum within {:.4}% of end-to-end simulation",
            drift * 100.0
        );
    }

    // 4. Trace export: well-formed JSON with spans from both compilation
    // (`lower`) and execution (`run_op`).
    let trace = tvm_obs::Registry::global().chrome_trace();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/trace.json", &trace).expect("write results/trace.json");
    match tvm_json::from_str(&trace) {
        Ok(root) => {
            let empty: Vec<Value> = Vec::new();
            let evs: &[Value] = match root.get("traceEvents") {
                Some(Value::Array(evs)) => evs,
                _ => &empty,
            };
            let spans = evs
                .iter()
                .filter(|e| matches!(e.get("ph"), Some(Value::Str(p)) if p == "X"))
                .count();
            let has = |name: &str| {
                evs.iter()
                    .any(|e| matches!(e.get("name"), Some(Value::Str(n)) if n == name))
            };
            if spans == 0 || !has("lower") || !has("run_op") {
                println!(
                    "FAIL: trace has {spans} spans (lower: {}, run_op: {})",
                    has("lower"),
                    has("run_op")
                );
                ok = false;
            } else {
                println!("ok: results/trace.json has {spans} spans incl. compile + execute phases");
            }
        }
        Err(e) => {
            println!("FAIL: results/trace.json does not parse: {e:?}");
            ok = false;
        }
    }

    println!("\n{}", tvm_obs::Registry::global().summary_tree());
    if !ok {
        std::process::exit(1);
    }
}
