//! Golden digests of every tuner kind: the trial history (config index
//! and cost bits), the best-so-far curve and the work counters of fixed
//! runs, pinned against a checked-in file. Any change to a tuner's draw
//! order, batch selection or memoization shows up here as a changed line.
//!
//! When an intentional change shifts a digest, regenerate with
//!
//! ```text
//! TVM_REGEN_GOLDEN=1 cargo test -p tvm-autotune --test tuner_golden
//! ```
//!
//! and review the diff: only the lines of the kinds meant to change may
//! move.

use std::path::Path;
use std::sync::Arc;

use tvm_autotune::{
    sketch_task, tune, ConfigEntity, ConfigSpace, TuneOptions, TuneResult, TunerKind, TuningTask,
};
use tvm_ir::DType;
use tvm_sim::arm_a53;
use tvm_te::{compute, create_schedule, lower, placeholder, reduce_axis, sum, TeError};

const KINDS: [TunerKind; 6] = [
    TunerKind::Random,
    TunerKind::Genetic,
    TunerKind::Predefined,
    TunerKind::GbtRank,
    TunerKind::GbtReg,
    TunerKind::Evolutionary,
];

/// The 2-D copy task of `tuner_behavior.rs`: tile knobs change the
/// simulated cost and a poison knob makes a quarter of the space invalid.
fn synthetic_task() -> TuningTask {
    let mut space = ConfigSpace::new();
    space.define_split("tile", 256, 64);
    space.define_knob("vec", &[0, 1]);
    space.define_knob("poison", &[0, 0, 0, 1]);
    let builder = move |cfg: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> {
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
        name: "synthetic_copy".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    }
}

/// The sketch-derived matmul task of `sketch_determinism.rs`.
fn mm_sketch_task(n: i64) -> TuningTask {
    let a = placeholder(&[n, n], DType::float32(), "A");
    let b = placeholder(&[n, n], DType::float32(), "B");
    let k = reduce_axis(n, "k");
    let c = compute(&[n, n], "C", |i| {
        sum(
            a.at(&[i[0].clone(), k.expr()]) * b.at(&[k.expr(), i[1].clone()]),
            std::slice::from_ref(&k),
        )
    });
    sketch_task(
        format!("sketch_mm{n}"),
        std::slice::from_ref(&c),
        &[a, b, c.clone()],
        arm_a53(),
    )
    .expect("matmul is sketchable")
}

/// 64-bit FNV-1a over a stream of words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest_line(task: &str, kind: TunerKind, r: &TuneResult) -> String {
    let history = fnv1a(
        r.history
            .iter()
            .flat_map(|t| [t.config_index, t.cost_ms.to_bits()]),
    );
    let curve = fnv1a(r.best_curve.iter().map(|c| c.to_bits()));
    format!(
        "{task} {kind:?} trials={} history={history:016x} curve={curve:016x} \
         lowerings={} simulations={} lookups={}",
        r.history.len(),
        r.stats.lowerings,
        r.stats.simulations,
        r.stats.lookups
    )
}

/// One digest line per tuner kind for `task`.
fn digests(name: &str, task: impl Fn() -> TuningTask, opts: &TuneOptions) -> String {
    KINDS
        .iter()
        .map(|&kind| digest_line(name, kind, &tune(&task(), opts, kind)) + "\n")
        .collect()
}

#[test]
fn every_tuner_kind_matches_its_golden_digest() {
    let synthetic = TuneOptions {
        n_trials: 32,
        seed: 13,
        ..Default::default()
    };
    let sketch = TuneOptions {
        n_trials: 24,
        batch: 8,
        seed: 11,
        ..Default::default()
    };
    let actual = digests("synthetic", synthetic_task, &synthetic)
        + &digests("sketch_mm64", || mm_sketch_task(64), &sketch);

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/tuner_digests.txt");
    if std::env::var_os("TVM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with TVM_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    let changed: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        changed.is_empty() && expected.lines().count() == actual.lines().count(),
        "tuner digests changed:\n{}\nif intentional, regenerate with TVM_REGEN_GOLDEN=1 \
         and review the diff",
        changed.join("\n")
    );
}
