//! The `infer` workload: a fixed round-robin list of inferences with
//! seeded inputs, run in a closed loop on one thread through one reused
//! `GraphExecutor` per model. Compilation happens in set-up and the tuner
//! does nothing, so the time goes to `ir::interp` and the runtime executor.
//!
//! Models: default (fused) `a53-sim` builds of ResNet-18, MobileNet and the
//! LSTM language model, plus the `tvm-prof` demo CNN built for `titanx-sim`
//! — the only GPU-scheduled model small enough to interpret in seconds; it
//! exercises thread nests, shared memory and barriers. Fused ResNet-18 and
//! the LSTM fail at run time with `MissingInput` (fusion returns groups in
//! creation order, not topological order); they stay in the list and count
//! in `fail_share`.
//!
//! `infer_mmac_per_s` divides the MACs of correct inferences by the
//! summed time of all `GraphExecutor::run` calls, each call's wall time
//! scaled to nominal host speed by [`crate::hostspeed`]; the report line
//! also prints the unscaled figure and the host speed.

use std::sync::Arc;

use tvm::BuildOptions;
use tvm_graph::Graph;
use tvm_runtime::{GraphExecutor, Module, NDArray};
use tvm_sim::Target;

use crate::hostspeed::Scaler;
use crate::layers::{self, timed, Built, SETUP, TIMED};
use crate::oracle;
use crate::Repeat;

/// Passes over the inference list per repeat (about 10 s each). The
/// host's speed wanders on a scale of seconds; the metric sums over all
/// passes and scales each run by the host-speed reference
/// ([`crate::hostspeed`]) sampled around it.
pub const ROUNDS: usize = 4;
/// ResNet-18 and MobileNet input resolution.
pub const IMAGE: i64 = 16;

/// One inference: named inputs and the oracle's output (or why it has
/// none).
type Case = (Vec<(String, NDArray)>, Result<Vec<f32>, String>);

/// The models, in round-robin order.
pub fn models() -> Vec<(&'static str, Graph, Target)> {
    vec![
        ("resnet18", tvm_models::resnet18(IMAGE), tvm_sim::arm_a53()),
        (
            "mobilenet",
            tvm_models::mobilenet(IMAGE),
            tvm_sim::arm_a53(),
        ),
        ("lstm_lm", tvm_models::lstm_lm(64, 4), tvm_sim::arm_a53()),
        (
            "demo_cnn",
            tvm_bench::profiling::demo_graph(true),
            tvm_sim::titanx(),
        ),
    ]
}

/// Runs one repeat, or only its set-up.
pub fn run(seed: u64, traced: bool, setup_only: bool) -> Repeat {
    let mut rep = Repeat::default();
    let models = models();

    let mut build_s = 0.0;
    let (mut execs, setup_s) = timed(SETUP, || {
        models
            .iter()
            .map(|(_, g, target)| {
                let (m, s) = timed("core.build", || {
                    tvm::build(g, target, &BuildOptions::default())
                });
                build_s += s;
                let m = Arc::new(m.map_err(|e| format!("build: {e}"))?);
                let (mut ex, _) = timed("runtime.executor_new", || {
                    GraphExecutor::from_arc(Arc::clone(&m))
                });
                if traced {
                    ex.enable_profiling();
                }
                Ok((m, ex))
            })
            .collect::<Vec<Result<(Arc<Module>, GraphExecutor), String>>>()
    });
    rep.setup_s = setup_s;
    if setup_only {
        return rep;
    }
    // Inputs and reference outputs: one case per round and model. The
    // oracle is benchmark overhead, outside every timer.
    let cases: Vec<Vec<Case>> = (0..ROUNDS)
        .map(|round| {
            models
                .iter()
                .enumerate()
                .map(|(i, (_, g, _))| {
                    let case_seed = seed
                        .wrapping_mul(1009)
                        .wrapping_add((round * models.len() + i) as u64);
                    let inputs = oracle::seeded_inputs(g, case_seed);
                    let reference = oracle::evaluate(g, &inputs, 0).map(|mut o| o.swap_remove(0));
                    (inputs, reference)
                })
                .collect()
        })
        .collect();
    let macs: Vec<f64> = models
        .iter()
        .map(|(_, g, _)| oracle::graph_macs(g))
        .collect();

    let (mut run_s, mut scaled_s, mut good_macs, mut input_bytes) = (0.0, 0.0, 0.0, 0usize);
    let (_, timed_s) = timed(TIMED, || {
        let mut host = Scaler::start();
        for round_cases in &cases {
            for (i, (name, _, _)) in models.iter().enumerate() {
                let ex = match &mut execs[i] {
                    Ok((_, ex)) => ex,
                    Err(e) => {
                        rep.record(Some(format!("{name}: {e}")));
                        continue;
                    }
                };
                let (inputs, reference) = &round_cases[i];
                let (bound, _) = timed("runtime.set_input", || {
                    inputs
                        .iter()
                        .try_for_each(|(n, x)| ex.set_input(n, x.clone()))
                });
                if let Err(e) = bound {
                    rep.record(Some(format!("{name}: {e:?}")));
                    continue;
                }
                let (res, s) = timed("runtime.run", || ex.run());
                run_s += s;
                scaled_s += host.scale(s);
                if let Some(p) = ex.profiler() {
                    input_bytes += p.ops.iter().map(|o| o.input_bytes).sum::<usize>();
                }
                let verdict = match res {
                    Err(e) => Some(format!("{name}: {e:?}")),
                    Ok(_) => match (ex.get_output(0), reference) {
                        (Err(e), _) => Some(format!("{name}: {e:?}")),
                        (_, Err(e)) => Some(format!("{name}: no reference: {e}")),
                        (Ok(out), Ok(want)) if !oracle::agrees(&out.data, want) => {
                            rep.wrong += 1;
                            Some(format!("{name}: output disagrees with the oracle"))
                        }
                        _ => None,
                    },
                };
                if verdict.is_none() {
                    good_macs += macs[i];
                }
                rep.record(verdict);
            }
        }
    });
    rep.wall_s = setup_s + timed_s;
    let m = &mut rep.metrics;
    m.insert(
        "infer_mmac_per_s".into(),
        good_macs / 1e6 / scaled_s.max(1e-9),
    );
    m.insert(
        "unscaled.infer_mmac_per_s".into(),
        good_macs / 1e6 / run_s.max(1e-9),
    );
    m.insert("unscaled.host_speed".into(), scaled_s / run_s.max(1e-9));

    if traced {
        let table = layers::span_table(&tvm_obs::Registry::global().events());
        let spans = layers::span_metrics(&table);
        let l = &mut rep.layers;
        l.insert("core.build_s".into(), build_s);
        l.insert("runtime.run_s".into(), run_s);
        l.insert("runtime.overhead_s".into(), run_s - spans["ir.interp_s"]);
        l.insert(
            "runtime.input_copy_mb".into(),
            input_bytes as f64 / (1 << 20) as f64,
        );
        l.extend(spans);
        let probes: Vec<Built> = models
            .iter()
            .zip(&execs)
            .filter_map(|((_, g, t), e)| {
                e.as_ref().ok().map(|(m, _)| Built {
                    graph: g,
                    module: m,
                    target: t,
                })
            })
            .collect();
        l.extend(layers::probe(&probes, true));
    }
    rep
}
