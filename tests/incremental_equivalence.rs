//! Campaign-level equivalence: `Campaign::Private` under
//! `Walk::Incremental` versus `Walk::Cold` (every round a full walk)
//! must serialise to identical outcomes across all five relying-party
//! tiers.
//!
//! The campaigns chosen cover the fault classes the memo cache has to
//! survive without changing a single byte of output: "mixed" layers
//! probabilistic in-flight corruption, flapping partitions, and a
//! takedown inside one run, and "corruption-burst" keeps the fault
//! dice hot for several consecutive rounds. Because campaign tiers
//! run in [`RevalidationMode::Full`], network behaviour is
//! byte-identical too, so even seeded probabilistic faults land the
//! same way in both runs.

use rpki_obs::Recorder;
use rpki_risk::{standard_campaigns, Campaign, Walk};

#[test]
fn incremental_campaigns_match_cold_campaigns_across_all_tiers() {
    for name in ["mixed", "corruption-burst"] {
        let spec = standard_campaigns()
            .into_iter()
            .find(|s| s.name == name)
            .expect("standard campaign present");
        let warm = Campaign::Private(Walk::Incremental).run(&spec, 11, &Recorder::disabled());
        let cold = Campaign::Private(Walk::Cold).run(&spec, 11, &Recorder::disabled());
        let warm_json = serde_json::to_string(&warm).expect("serialise");
        let cold_json = serde_json::to_string(&cold).expect("serialise");
        assert_eq!(
            warm_json, cold_json,
            "campaign {name}: incremental revalidation changed a campaign outcome"
        );
    }
}
