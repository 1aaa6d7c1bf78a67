//! Compatibility surface only: `benchmark/src/seam.rs` imports these
//! three names and a change to the program may not edit it. The wave
//! driver they fronted never beat [`Validator::run`] and is deleted
//! (last version: commit `2c9125f`); the benchmark-only follow-up that
//! moves `seam.rs` onto `Validator::run` deletes this file.

use rpki_objects::TrustAnchorLocator;

use crate::source::ObjectSource;
use crate::validation::{ValidationRun, Validator};

/// The shard count a caller asked for; nothing reads it.
#[derive(Debug, Clone, Copy)]
pub struct ShardPlan;

impl ShardPlan {
    /// Accepts any count.
    pub fn new(_shards: usize) -> Self {
        ShardPlan
    }
}

/// The two schedule figures `seam.rs` reads; always zero.
#[derive(Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Always 0: one walker, nothing to steal.
    pub steals: u64,
    /// Always 0: no worker is timed.
    pub critical_path_ns: u64,
}

impl ShardStats {
    /// Always 1.0: one walker, nothing to balance.
    pub fn model_speedup(&self) -> f64 {
        1.0
    }
}

impl Validator {
    /// [`Validator::run`] and default stats, whatever the plan.
    #[doc(hidden)]
    pub fn run_sharded(
        &self,
        source: &mut dyn ObjectSource,
        tals: &[TrustAnchorLocator],
        _plan: ShardPlan,
    ) -> (ValidationRun, ShardStats) {
        (self.run(source, tals), ShardStats::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::tests::{rig, Rig};
    use crate::source::NetworkSource;
    use crate::validation::ValidationConfig;
    use netsim::NodeId;
    use rpki_objects::Moment;

    /// Nine publication points behind 20 % seeded loss each way; every
    /// call builds the same world, so the fault dice fall the same way.
    fn lossy_world() -> (Rig, NodeId) {
        let mut rig = rig(9);
        let rp = rig.net.add_node("rp");
        let server = rig.repos.node_of("h").expect("the rig's host");
        rig.net.faults.set_loss(server, rp, 0.2);
        rig.net.faults.set_loss(rp, server, 0.2);
        (rig, rp)
    }

    /// `run_sharded` is `run`, fault dice included, whatever the plan.
    #[test]
    fn run_sharded_is_run() {
        let v = Validator::new(ValidationConfig::at(Moment(2)));
        let (mut rig, rp) = lossy_world();
        let expected = v.run(
            &mut NetworkSource::new(&mut rig.net, &rig.repos, rp),
            std::slice::from_ref(&rig.tal),
        );
        assert!(!expected.diagnostics.is_empty(), "the loss must bite, or the world is clean");
        assert!(!expected.vrps.is_empty(), "and must leave something to compare");
        for shards in [1, 8] {
            let (mut rig, rp) = lossy_world();
            let (run, stats) = v.run_sharded(
                &mut NetworkSource::new(&mut rig.net, &rig.repos, rp),
                std::slice::from_ref(&rig.tal),
                ShardPlan::new(shards),
            );
            assert_eq!(run, expected, "run_sharded({shards}) diverged from run");
            assert_eq!(stats, ShardStats::default());
        }
        assert_eq!(ShardStats::default().model_speedup(), 1.0);
    }
}
