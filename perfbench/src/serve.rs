//! The `serve` workload: `tvm_serve::Service` with two weighted tenants
//! and both servable models, driven by a seeded open-loop Poisson trace
//! with one 3x burst window at a constant offered rate. It runs the same
//! interpreter and runtime as `infer`, but as thousands of tiny padded
//! batches with a fresh executor and re-seeded weights per batch, behind
//! admission, DRR dispatch, the batcher, the artifact cache and the pool.

use std::collections::HashMap;
use std::sync::Arc;

use tvm::BuildOptions;
use tvm_graph::Graph;
use tvm_runtime::NDArray;
use tvm_serve::{
    generate, AdmissionConfig, BatchPolicy, BurstSpec, HedgePolicy, Model, ResponseRecord,
    ServeOutcome, Service, ServiceConfig, TenantConfig, TenantTraffic, TrafficSpec,
};

use crate::layers::{self, timed, Built, SETUP, TIMED};
use crate::oracle;
use crate::Repeat;

/// Offered load outside the burst, in requests per virtual second. A
/// constant of the benchmark: it does not follow the code's capacity. At
/// this rate batches fill to about 7 of 8 and nothing is shed even at the
/// burst peak (shedding starts above 100k/s), and latency percentiles are
/// steady across seeds.
pub const RATE_RPS: f64 = 6000.0;
/// Requests per repeat: the trace is generated for about 15% more and
/// cut to this many, so every repeat attempts the same number.
pub const REQUESTS: usize = 1000;

fn config() -> ServiceConfig {
    ServiceConfig {
        tenants: vec![
            TenantConfig::new("interactive").weight(2).queue_cap(256),
            TenantConfig::new("batch").weight(1).queue_cap(256),
        ],
        admission: AdmissionConfig {
            max_outstanding: 512,
            ..AdmissionConfig::default()
        },
        batch: BatchPolicy {
            max_batch: 8,
            max_delay_ms: 2.0,
            ..BatchPolicy::default()
        },
        hedge: HedgePolicy {
            enabled: true,
            ..HedgePolicy::default()
        },
        keep_outputs: true,
        ..ServiceConfig::default()
    }
}

/// The trace: the interactive tenant asks for both models and bursts to
/// 3x its rate for a tenth of the horizon; the batch tenant asks for the
/// MLP only.
fn traffic(seed: u64) -> TrafficSpec {
    let horizon_ms = REQUESTS as f64 / RATE_RPS * 1000.0 * 1.05;
    TrafficSpec {
        seed,
        horizon_ms,
        tenants: vec![
            TenantTraffic {
                tenant: "interactive".into(),
                rate_rps: RATE_RPS * 0.6,
                models: vec![Model::Mlp, Model::TinyCnn],
                bursts: vec![BurstSpec {
                    start_ms: horizon_ms * 0.4,
                    end_ms: horizon_ms * 0.5,
                    factor: 3.0,
                }],
                deadline_budget_ms: None,
            },
            TenantTraffic {
                tenant: "batch".into(),
                rate_rps: RATE_RPS * 0.4,
                models: vec![Model::Mlp],
                bursts: vec![],
                deadline_budget_ms: None,
            },
        ],
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs one repeat, or only its set-up.
pub fn run(seed: u64, traced: bool, setup_only: bool) -> Repeat {
    let mut rep = Repeat::default();
    let ((svc, trace), setup_s) = timed(SETUP, || {
        let (svc, _) = timed("serve.new", || Service::new(config()));
        let (trace, _) = timed("serve.traffic", || {
            let mut t = generate(&traffic(seed));
            t.truncate(REQUESTS);
            t
        });
        (svc, trace)
    });
    rep.setup_s = setup_s;
    if setup_only {
        return rep;
    }
    let mut svc = match svc {
        Ok(s) => s,
        Err(e) => {
            rep.record(Some(format!("service: {e:?}")));
            return rep;
        }
    };
    let requests = trace.clone();
    let ((responses, stats), run_s) = timed(TIMED, || svc.run(trace));
    rep.wall_s = setup_s + run_s;

    // Every request gets exactly one response; an OK row must match the
    // oracle run on the model's batch-1 graph with the stable weights.
    let graphs: Vec<(Model, Graph, u64)> = [Model::Mlp, Model::TinyCnn]
        .into_iter()
        .map(|m| (m, m.build_graph(1), svc.versions().stable(m).weights))
        .collect();
    let mut latencies = Vec::with_capacity(requests.len());
    let mut ok = 0u64;
    let (mut padded, mut executed) = (0.0, 0u64);
    let mut by_id: HashMap<u64, Vec<&ResponseRecord>> = HashMap::new();
    for r in &responses {
        by_id.entry(r.id).or_default().push(r);
    }
    for req in &requests {
        let Some([resp]) = by_id.get(&req.id).map(Vec::as_slice) else {
            rep.record(Some("a request did not get exactly one response".into()));
            latencies.push(f64::INFINITY);
            continue;
        };
        let verdict = match &resp.outcome {
            ServeOutcome::Ok { output, .. } => {
                let (_, g, weights) = graphs
                    .iter()
                    .find(|(m, _, _)| *m == req.model)
                    .expect("model");
                let input = NDArray::new(&req.model.input_shape(1), req.payload.clone());
                let want =
                    oracle::evaluate(g, &[(req.model.input_name().to_string(), input)], *weights);
                padded += (resp.bucket as f64 - resp.batch_size as f64) / resp.batch_size as f64;
                executed += 1;
                match (output, want) {
                    (Some(row), Ok(want)) if oracle::agrees(row, &want[0]) => None,
                    (_, Err(e)) => Some(format!("{}: no reference: {e}", req.model.name())),
                    _ => {
                        rep.wrong += 1;
                        Some(format!(
                            "{}: row disagrees with the oracle",
                            req.model.name()
                        ))
                    }
                }
            }
            ServeOutcome::DeadlineExceeded { .. } => Some("deadline exceeded".into()),
            ServeOutcome::Rejected(e) => Some(format!("{e:?}")),
        };
        if verdict.is_none() {
            ok += 1;
            latencies.push(resp.done_ms - resp.arrival_ms);
        } else {
            latencies.push(f64::INFINITY);
        }
        rep.record(verdict);
    }
    latencies.sort_by(f64::total_cmp);
    rep.metrics
        .insert("serve_rps".into(), ok as f64 / run_s.max(1e-9));
    rep.metrics
        .insert("serve_p50_vms".into(), percentile(&latencies, 50.0));
    rep.metrics
        .insert("serve_p99_vms".into(), percentile(&latencies, 99.0));

    if traced {
        let table = layers::span_table(&tvm_obs::Registry::global().events());
        let l = &mut rep.layers;
        l.extend(layers::span_metrics(&table));
        l.insert("serve.batches".into(), stats.batches as f64);
        l.insert(
            "serve.mean_batch".into(),
            stats.batch_size_sum as f64 / stats.batches.max(1) as f64,
        );
        l.insert("serve.pad_ratio".into(), padded / executed.max(1) as f64);
        l.insert("serve.cold_builds".into(), stats.cache.cold_builds as f64);
        l.insert("serve.cache_hits".into(), stats.cache.hits as f64);
        l.insert("serve.pool_retries".into(), stats.pool.retries as f64);
        l.insert("serve.hedges_issued".into(), stats.hedge.issued as f64);
        l.insert("serve.shed".into(), stats.shed as f64);
        // The service compiles inside its artifact cache; the probes
        // compile the same graphs at the largest bucket to time the
        // layers underneath.
        let target = tvm_sim::arm_a53();
        let graphs: Vec<Graph> = [Model::Mlp, Model::TinyCnn]
            .iter()
            .map(|m| m.build_graph(8))
            .collect();
        let modules: Vec<Arc<tvm_runtime::Module>> = graphs
            .iter()
            .filter_map(|g| tvm::build(g, &target, &BuildOptions::default()).ok())
            .map(Arc::new)
            .collect();
        let probes: Vec<Built> = graphs
            .iter()
            .zip(&modules)
            .map(|(graph, module)| Built {
                graph,
                module,
                target: &target,
            })
            .collect();
        l.extend(layers::probe(&probes, true));
    }
    rep
}
