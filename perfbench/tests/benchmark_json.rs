//! `BENCHMARK.json` names exactly the metrics the binary prints, and the
//! traced-run table sums to the traced wall time.

use perfbench::layers::{span_table, SETUP, TIMED};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use tvm_json::Value;
use tvm_obs::SpanEvent;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    tvm_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(Value::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics_and_workloads() {
    let v = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect();
    assert_eq!(names_units(&v, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_units(&v, "per_layer"), layers);
    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

fn ev(path: &str, start_ns: u64, dur_ns: u64, tid: usize, seq: u64) -> SpanEvent {
    SpanEvent {
        path: path.to_string(),
        start_ns,
        dur_ns,
        seq,
        tid,
        args: Vec::new(),
    }
}

#[test]
fn layer_self_times_sum_to_the_traced_wall_time() {
    let events = vec![
        ev(SETUP, 0, 100, 0, 0),
        ev(&format!("{SETUP}/core.build"), 10, 60, 0, 1),
        ev(&format!("{SETUP}/core.build/lower"), 20, 30, 0, 2),
        ev(&format!("{SETUP}/core.build/lower/simplify"), 25, 10, 0, 3),
        ev(TIMED, 100, 200, 0, 4),
        ev(&format!("{TIMED}/tune"), 110, 150, 0, 5),
        ev(&format!("{TIMED}/tune/propose_sa"), 120, 100, 0, 6),
        // A span this table does not know takes its parent's layer.
        ev(&format!("{TIMED}/tune/propose_sa/score"), 130, 40, 0, 9),
        // Helper-thread work: counted as busy time, not in the table.
        ev("lower", 130, 50, 1, 7),
        ev("lower/emit_stage", 140, 20, 1, 8),
    ];
    let t = span_table(&events);
    assert!((t.wall_s - 300e-9).abs() < 1e-15);
    let sum: f64 = t.self_by_layer.values().sum();
    assert!((sum - t.wall_s).abs() < 1e-15, "{:?}", t.self_by_layer);
    let layer = |l: &str| t.self_by_layer.get(l).copied().unwrap_or(0.0) * 1e9;
    assert!((layer("core") - 30.0).abs() < 1e-6);
    assert!((layer("te") - 30.0).abs() < 1e-6);
    assert!((layer("autotune") - 150.0).abs() < 1e-6);
    assert!((layer("other") - 90.0).abs() < 1e-6);
    assert!((t.busy_by_layer["te"] * 1e9 - 80.0).abs() < 1e-6);
    assert!((t.self_by_name["propose_sa"] * 1e9 - 60.0).abs() < 1e-6);
}
