//! Contracts of the shared search loop that hold for every tuner kind.

use std::sync::Arc;

use tvm_autotune::{tune, ConfigEntity, ConfigSpace, TuneOptions, TunerKind, TuningTask};
use tvm_sim::arm_a53;
use tvm_te::TeError;

#[test]
fn every_kind_spends_its_budget_when_nothing_lowers() {
    // No config lowers, so no proposer ever gets a measured config or a
    // training sample to work from, and the heuristic scorer ranks an
    // empty sample: every kind must still fall back to random picks.
    let mut space = ConfigSpace::new();
    space.define_split("tile", 1024, 256);
    space.define_knob("vec", &[0, 1]);
    let builder =
        |_: &ConfigEntity| -> Result<tvm_ir::LoweredFunc, TeError> { Err(TeError::msg("broken")) };
    let task = TuningTask {
        name: "always_fails".into(),
        space,
        builder: Arc::new(builder),
        target: arm_a53(),
        sim_opts: Default::default(),
    };
    let opts = TuneOptions {
        n_trials: 12,
        seed: 4,
        ..Default::default()
    };
    for kind in [
        TunerKind::Random,
        TunerKind::Genetic,
        TunerKind::Predefined,
        TunerKind::GbtRank,
        TunerKind::GbtReg,
        TunerKind::Evolutionary,
    ] {
        let r = tune(&task, &opts, kind);
        assert_eq!(r.history.len(), 12, "{kind:?} spent the whole budget");
        assert!(r.history.iter().all(|t| t.cost_ms.is_infinite()));
        assert!(r.best_config.is_none(), "{kind:?} must not pick a best");
    }
}
