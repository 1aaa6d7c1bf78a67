//! Pinned digests of every campaign's outcome tables and traces.
//!
//! Each row is the SHA-256 of one *table* of one `(spec, seed,
//! campaign)` run — `tiers`, `divergence`, `load`, `rtr`, the schedule
//! rounds, the Stalloris scenario's whole `DowngradeRecord` — or of
//! the run's JSONL trace or metrics registry. A pinned digest is
//! strictly stronger than running the triple twice and comparing: it
//! fails on cross-process nondeterminism and on any refactor that moves
//! a byte of an outcome or a trace.
//!
//! An intentional change prints the whole new table on mismatch; paste
//! it over [`PINS`].

use std::collections::BTreeMap;

use rpki_attacks::CorpusKind;
use rpki_ca::ChurnConfig;
use rpki_obs::Recorder;
use rpki_risk::{
    gaming_schedule_plan, rtr_campaign, schedule_gaming_campaign, stalloris_campaign,
    standard_campaigns, Campaign, CampaignSpec, FaultKind, FaultWindow, RtrConfig, Walk,
};
use rpki_rp::{MergePolicy, SlurmFile, UnsafeVrpPolicy};
use rpkisim_crypto::sha256;

/// Digests one outcome table (any `Serialize` value) into a row.
macro_rules! json {
    ($t:expr, $run:expr, $table:expr, $value:expr) => {
        $t.bytes(&$run, $table, &serde_json::to_string(&$value).expect("serializes"))
    };
}

/// Collects `(label, digest)` rows in run order, and how often each
/// event kind occurs across the digested traces.
#[derive(Default)]
struct Table {
    rows: Vec<(String, String)>,
    kinds: BTreeMap<&'static str, usize>,
}

impl Table {
    fn bytes(&mut self, run: &str, table: &str, bytes: &str) {
        self.rows.push((format!("{run}/{table}"), sha256(bytes.as_bytes()).to_hex()));
    }

    fn trace(&mut self, run: &str, recorder: &Recorder) {
        self.bytes(run, "trace", &recorder.trace_jsonl());
        self.bytes(run, "metrics", &recorder.metrics().to_json());
        for event in recorder.events() {
            *self.kinds.entry(event.kind).or_default() += 1;
        }
    }
}

const CONTINENTAL: &str = "rpki.continental.example";

/// The six-round takedown the in-crate campaign tests use.
fn short_takedown() -> CampaignSpec {
    CampaignSpec {
        name: "t".to_owned(),
        unsafe_vrps: UnsafeVrpPolicy::Accept,
        churn: None,
        rounds: 6,
        windows: vec![FaultWindow::new(CONTINENTAL, FaultKind::Takedown, 2, 4)],
    }
}

/// A takedown long enough that the scheduler's host backoff trips three
/// times, each cool-down twice the last: the third outlasts a round, so
/// one round's visit to the host is backed off.
fn long_takedown() -> CampaignSpec {
    CampaignSpec {
        name: "long-takedown".to_owned(),
        windows: vec![FaultWindow::new(CONTINENTAL, FaultKind::Takedown, 2, 13)],
        rounds: 14,
        ..short_takedown()
    }
}

/// The fault kinds no standard campaign arms, overlapping, under the
/// `Warn` unsafe-VRP policy.
fn odd_kinds() -> CampaignSpec {
    CampaignSpec {
        name: "odd-kinds".to_owned(),
        unsafe_vrps: UnsafeVrpPolicy::Warn,
        churn: None,
        rounds: 8,
        windows: vec![
            FaultWindow::new(CONTINENTAL, FaultKind::Partition, 2, 3),
            FaultWindow::new(CONTINENTAL, FaultKind::RrdpWithhold, 3, 5),
            FaultWindow::new("rtr", FaultKind::RtrPartition, 4, 5),
            FaultWindow::new(
                CONTINENTAL,
                FaultKind::AdversarialPublish { kind: CorpusKind::ResourceOverclaim },
                5,
                6,
            ),
            FaultWindow::new("rpki.sprint.example", FaultKind::Stall { extra: 120 }, 6, 7),
        ],
    }
}

fn private(t: &mut Table, spec: &CampaignSpec, seed: u64) {
    let run = format!("private/{}@{seed}", spec.name);
    let rec = Recorder::new();
    let out = Campaign::Private(Walk::Incremental).run(spec, seed, &rec);
    json!(t, run, "tiers", out.tiers);
    t.trace(&run, &rec);
}

fn cold(t: &mut Table, spec: &CampaignSpec, seed: u64) {
    let run = format!("cold/{}@{seed}", spec.name);
    let out = Campaign::Private(Walk::Cold).run(spec, seed, &Recorder::disabled());
    json!(t, run, "tiers", out.tiers);
}

fn shared(t: &mut Table, spec: &CampaignSpec, seed: u64) {
    let run = format!("shared/{}@{seed}", spec.name);
    let rec = Recorder::new();
    let out = Campaign::Shared.run(spec, seed, &rec);
    json!(t, run, "tiers", out.tiers);
    json!(t, run, "divergence", out.divergence);
    json!(t, run, "load", out.load);
    t.trace(&run, &rec);
}

fn rtr(t: &mut Table, spec: &CampaignSpec, seed: u64, cfg: RtrConfig) {
    let run = format!("rtr{}{:?}/{}@{seed}", cfg.routers, cfg.policy, spec.name);
    let rec = Recorder::new();
    let out = Campaign::Rtr(cfg, SlurmFile::empty()).run(spec, seed, &rec);
    json!(t, run, "tiers", out.tiers);
    json!(t, run, "rtr", out.rtr);
    t.trace(&run, &rec);
}

fn scheduled(t: &mut Table, spec: &CampaignSpec, seed: u64) {
    let run = format!("scheduled/{}@{seed}", spec.name);
    let rec = Recorder::new();
    let out = Campaign::Scheduled(gaming_schedule_plan()).run(spec, seed, &rec);
    json!(t, run, "schedule", out.schedule);
    t.trace(&run, &rec);
}

/// The Stalloris scenario: the whole record is one table.
fn downgrade(t: &mut Table, seed: u64) {
    let run = format!("downgrade@{seed}");
    let rec = Recorder::new();
    let out = Campaign::Stalloris.run(&stalloris_campaign(), seed, &rec);
    json!(t, run, "outcome", out.downgrade.expect("a Stalloris run records the scenario"));
    t.trace(&run, &rec);
}

fn fingerprints() -> Table {
    let mut t = Table::default();
    for spec in standard_campaigns() {
        private(&mut t, &spec, 2013);
        cold(&mut t, &spec, 2013);
        shared(&mut t, &spec, 2013);
    }
    rtr(&mut t, &rtr_campaign(), 2013, RtrConfig::default());
    scheduled(&mut t, &schedule_gaming_campaign(), 2013);

    // The triples the retired run-twice replay tests exercised.
    let all3 = RtrConfig { routers: 3, policy: MergePolicy::All };
    private(&mut t, &short_takedown(), 7);
    cold(&mut t, &short_takedown(), 7);
    rtr(&mut t, &rtr_campaign(), 7, all3);
    scheduled(&mut t, &schedule_gaming_campaign(), 11);

    // Background churn through every driver that runs it.
    let churned = CampaignSpec { name: "t-churned".to_owned(), ..short_takedown() }
        .with_churn(ChurnConfig::renew_only(400));
    private(&mut t, &churned, 7);
    cold(&mut t, &churned, 7);
    shared(&mut t, &churned, 7);
    rtr(&mut t, &churned, 7, all3);

    // Every fault kind the standard suite leaves unarmed.
    private(&mut t, &odd_kinds(), 2013);
    shared(&mut t, &odd_kinds(), 2013);
    rtr(&mut t, &odd_kinds(), 2013, all3);

    for seed in [2013, 41, 17, 23] {
        downgrade(&mut t, seed);
    }

    // The scheduler's backoff, tripped and re-tripped.
    scheduled(&mut t, &long_takedown(), 2013);
    t
}

#[test]
fn every_entry_point_matches_its_pinned_digests() {
    let got = fingerprints().rows;
    let pinned: Vec<(String, String)> =
        PINS.iter().map(|&(label, digest)| (label.to_owned(), digest.to_owned())).collect();
    if got != pinned {
        let table: String = got
            .iter()
            .map(|(label, digest)| format!("    (\"{label}\", \"{digest}\"),\n"))
            .collect();
        let moved: Vec<&str> = got
            .iter()
            .filter(|row| !pinned.contains(row))
            .map(|(label, _)| label.as_str())
            .collect();
        panic!(
            "campaign fingerprints moved: {moved:?}\n\
             if intentional, replace PINS with:\n\
             const PINS: &[(&str, &str)] = &[\n{table}];"
        );
    }
}

/// The pinned traces carry every transition of both host breakers: the
/// stale cache's circuit in the shared standard takedown, and the
/// scheduler's backoff, tripped three times, in the long one.
#[test]
fn pinned_traces_carry_every_breaker_transition() {
    let mut t = Table::default();
    let takedown = standard_campaigns().into_iter().find(|spec| spec.name == "takedown");
    shared(&mut t, &takedown.expect("a standard campaign"), 2013);
    scheduled(&mut t, &long_takedown(), 2013);
    for row in &t.rows {
        assert!(PINS.iter().any(|&(label, digest)| (label, digest) == (&row.0, &row.1)), "{row:?}");
    }
    let count = |kind| t.kinds.get(kind).copied().unwrap_or(0);
    for kind in
        ["circuit_open", "circuit_half_open", "circuit_reopen", "circuit_close", "circuit_skip"]
    {
        assert!(count(kind) > 0, "no {kind} in {:?}", t.kinds);
    }
    assert!(count("schedule_backoff") >= 2, "{:?}", t.kinds);
}

#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("private/corruption-burst@2013/tiers", "d65b831f0dfc1aaf864a303db40692e1778eb50da7b1acaa922a5e118fc69cf7"),
    ("private/corruption-burst@2013/trace", "36cf38f7fdf299482d2a70caf4de475d7aa1dab678ddec00c733a6242b0dd8b0"),
    ("private/corruption-burst@2013/metrics", "15c160f3301736a327f559713b59db10e6f4cf68cfaa04cbf123dc81952e1935"),
    ("cold/corruption-burst@2013/tiers", "d65b831f0dfc1aaf864a303db40692e1778eb50da7b1acaa922a5e118fc69cf7"),
    ("shared/corruption-burst@2013/tiers", "097a64f63ee991303fa20fa11eb3494d4be61bfd5df2226dd4b1338270c785a9"),
    ("shared/corruption-burst@2013/divergence", "a0f8e1bab6ae4b3a44014a58a4385712b9fa4e3195930ab341696819762a113c"),
    ("shared/corruption-burst@2013/load", "ca3914f67500f9fb838a77f79608239e6c96c411c0a74c19ec5738387f0e5de1"),
    ("shared/corruption-burst@2013/trace", "afd799ce632e746b8690c1b82bb10ffa893e7ea49aa7c3b3f9060dc18644b27b"),
    ("shared/corruption-burst@2013/metrics", "ce0a7363977b8e44324c73ff657ae5e9f92dca95b055a42ac037fc4aa03e4a71"),
    ("private/flapping-partition@2013/tiers", "6b843a7d4c54c3dd43e77e6d66802edca143f29f51003a084f345800d372d28f"),
    ("private/flapping-partition@2013/trace", "cfdb4c25d4c7c70fc1b15b4d141a1ec22070f118da0495bb3ef7456c4484329c"),
    ("private/flapping-partition@2013/metrics", "642bff24e1af3912421b09b3dc39332be6c78a8768a31bb4379bf59cd91cc25a"),
    ("cold/flapping-partition@2013/tiers", "6b843a7d4c54c3dd43e77e6d66802edca143f29f51003a084f345800d372d28f"),
    ("shared/flapping-partition@2013/tiers", "6b843a7d4c54c3dd43e77e6d66802edca143f29f51003a084f345800d372d28f"),
    ("shared/flapping-partition@2013/divergence", "f19e464d5418c3b3952225c464e15b919a067454e0c43a5f627efcbf3ffc0053"),
    ("shared/flapping-partition@2013/load", "a37b57f76ab353f23ab691e4ed2e6ef57827bd8958e30b5a3eb5850a612ef625"),
    ("shared/flapping-partition@2013/trace", "c060b8644ab746c84fdcb57b344d611cc7e09d5909727bb524e3cfb8f8c177f1"),
    ("shared/flapping-partition@2013/metrics", "6528d58287473466bb39ff678a55aad5ffa01ac344f46a50887e517a4d397583"),
    ("private/takedown@2013/tiers", "8a8e0742fa4e5e31e9b6c099c86eb6964fda55184a97442c2710a2deb4fc5d0b"),
    ("private/takedown@2013/trace", "89dae9a4951fd220268d4039273634b8e502d770b1f7bb9f5247b5553a7ce396"),
    ("private/takedown@2013/metrics", "6eed433cd3014583496ed44e9d11f5c8d89dbbcfd31b0dd579a6aacf0fb314b2"),
    ("cold/takedown@2013/tiers", "8a8e0742fa4e5e31e9b6c099c86eb6964fda55184a97442c2710a2deb4fc5d0b"),
    ("shared/takedown@2013/tiers", "7429088a8297d887170a1e9c309ce7f19dbb9c88b110895a0a0edc51b59f5788"),
    ("shared/takedown@2013/divergence", "7965635084ecb4e24ada82109b1ad74c7f9b79ea7542a336d0bf2174ad37d243"),
    ("shared/takedown@2013/load", "9bd4d058a918e13437ed2d5a2f3e29278db5b6421db463c1bf5833fdd0f04c54"),
    ("shared/takedown@2013/trace", "498d14bd5cca32793a0f8506fad6cbd89b9ca8bda8dead67064a2577c7ef1d21"),
    ("shared/takedown@2013/metrics", "2e1e89724417fa8e2514ea6387af68ff778fd9301d631dcbde952b87f389447c"),
    ("private/slow-serve@2013/tiers", "5f5cac2540898396b367b0f2d5c16120cc1772d54b86f81d3c660c9b59fbfa2e"),
    ("private/slow-serve@2013/trace", "8f568b28702d08680173f79a67b3336a9f6da980fafa810f71b3550a30f94878"),
    ("private/slow-serve@2013/metrics", "a4d3c0f7385678fad63de765ad71d0e0545fb951fd39915484ddef57868d6195"),
    ("cold/slow-serve@2013/tiers", "5f5cac2540898396b367b0f2d5c16120cc1772d54b86f81d3c660c9b59fbfa2e"),
    ("shared/slow-serve@2013/tiers", "c73238c9f73a429fe3b0cdbba248a9a1cf70a2a084d2ff2a9f32200b4a460910"),
    ("shared/slow-serve@2013/divergence", "86788faad0671c448a2447c26c4b14a9f35e6836d8601abf5aeea51860be9097"),
    ("shared/slow-serve@2013/load", "e69848764b39b8e72db175dee3ef80d41e16e1e674c262f3d7bc73c3feebe4e2"),
    ("shared/slow-serve@2013/trace", "2c36b360166dd3b48ea32219cf8b8f9691b0fb3bb1e094d59956043d0cbf21a1"),
    ("shared/slow-serve@2013/metrics", "e0583fd6def805968cc5a7e29b54de64ec4cad5b3c13e337b6c07380ee3e145a"),
    ("private/stalloris-downgrade@2013/tiers", "8bb2e003d9e0bf01be7a19b351b67a010853a4c654865e9a8c758f28298ddcc6"),
    ("private/stalloris-downgrade@2013/trace", "1efb898620e3a1593c3b05a465e9426d2a7fda8c2fdcb08466cf240aeeb7c269"),
    ("private/stalloris-downgrade@2013/metrics", "53d5510c35e5767a2c909f3cae9560c5866b09354d162c89f09defec23944b95"),
    ("cold/stalloris-downgrade@2013/tiers", "8bb2e003d9e0bf01be7a19b351b67a010853a4c654865e9a8c758f28298ddcc6"),
    ("shared/stalloris-downgrade@2013/tiers", "8bb2e003d9e0bf01be7a19b351b67a010853a4c654865e9a8c758f28298ddcc6"),
    ("shared/stalloris-downgrade@2013/divergence", "3bae06aabd1b4fe4f9c16d35ee007589817fbc19167d976bd5132a3b4f522756"),
    ("shared/stalloris-downgrade@2013/load", "90c1050dfffe4c76c64304f0efc9d1eda87b618480052b082ca5a66166ac04cc"),
    ("shared/stalloris-downgrade@2013/trace", "28f145ebe509bc28564afea8721882e75b90368e94baf81e1c0a27bce7f6a34b"),
    ("shared/stalloris-downgrade@2013/metrics", "1b21c24f92689d09931732233c00a7526516d97130be926682172fc119e0cb12"),
    ("private/mixed@2013/tiers", "b9ae6b824bdbef13ebc792fd5b56803770dec3fc312a5c4267bb48d28cf44f1a"),
    ("private/mixed@2013/trace", "063fa816a2bab30f4e8881caa90cf8c276ab9cc6b281817cd5d34237fb7ff3e0"),
    ("private/mixed@2013/metrics", "9412b7d069f9909e0c37982b863c0acdc18de221710efb982a566a76b2c11223"),
    ("cold/mixed@2013/tiers", "b9ae6b824bdbef13ebc792fd5b56803770dec3fc312a5c4267bb48d28cf44f1a"),
    ("shared/mixed@2013/tiers", "016e09b4cf430f7a457313b7712266901ae90d31a5d6a703b7a1403538c13538"),
    ("shared/mixed@2013/divergence", "6ad57482b7a65b88f6645743b4fe54bec89cc23eee39af55c136932675391426"),
    ("shared/mixed@2013/load", "a09d9bedace157bde16db8b6b27772b67a28d6b22bb5fe68d983d44e531609f6"),
    ("shared/mixed@2013/trace", "e7f538a05b5264158e6c0fca1a82ab5cc5469ea82f36ecb25be82b6e7ede6e06"),
    ("shared/mixed@2013/metrics", "8e00b22b444efd57293afb45625804506d5f5984e4f093e6142a163d6f61b36e"),
    ("rtr8Union/rtr-stale-routers@2013/tiers", "46b148b5fa35c2c2ef9d5013a285d03529661d86cef1eaf26c8295b621b87649"),
    ("rtr8Union/rtr-stale-routers@2013/rtr", "ea7637c825f7cf0854060f11f0927797467395061ddb30edfc927e73638b12c5"),
    ("rtr8Union/rtr-stale-routers@2013/trace", "6856246d5379f9ca64383c9a707dff00eaf3ad94341e01c1cc4903ac681e4efa"),
    ("rtr8Union/rtr-stale-routers@2013/metrics", "dc23b338757c645a79e085dee046c670a9dfab213d78139508900784582e9223"),
    ("scheduled/schedule-gaming@2013/schedule", "92eddb43d784eab0d65cba4c73bd2f11d32245bb8f69f04b62021e70f172252f"),
    ("scheduled/schedule-gaming@2013/trace", "13d158580aac35b686ca2989265d629e347764fd05dd651789afd364109f5cd3"),
    ("scheduled/schedule-gaming@2013/metrics", "8a1385b9daddd2bbb60f75a6cccd39a648a3a0673e3adc7be98895b9152be6f0"),
    ("private/t@7/tiers", "1568872c9d837e2ef518dfca6ac6688051a313d4c40895abc558340412411a84"),
    ("private/t@7/trace", "124d765d8ae57c3b9e0b6a30dedcd5755bc9ff3a2db39826f86e153e6bfcb0d8"),
    ("private/t@7/metrics", "9948ec093d5998b0788caa8bb2e57387bbd9df2cff399720ca055ef435deef7e"),
    ("cold/t@7/tiers", "1568872c9d837e2ef518dfca6ac6688051a313d4c40895abc558340412411a84"),
    ("rtr3All/rtr-stale-routers@7/tiers", "46b148b5fa35c2c2ef9d5013a285d03529661d86cef1eaf26c8295b621b87649"),
    ("rtr3All/rtr-stale-routers@7/rtr", "77286fe4842c8c5bc58a87cede3785c606f7558fb0883ae65001e6ea18098a0d"),
    ("rtr3All/rtr-stale-routers@7/trace", "b2953b2f392467107a3ca5dd8c132767bfbe8f6cebc4c239bd315e7592388e5f"),
    ("rtr3All/rtr-stale-routers@7/metrics", "49837e53b647c5895afbb2c159d49a8e371d8ac61562701a9f50073677da619b"),
    ("scheduled/schedule-gaming@11/schedule", "92eddb43d784eab0d65cba4c73bd2f11d32245bb8f69f04b62021e70f172252f"),
    ("scheduled/schedule-gaming@11/trace", "13d158580aac35b686ca2989265d629e347764fd05dd651789afd364109f5cd3"),
    ("scheduled/schedule-gaming@11/metrics", "8a1385b9daddd2bbb60f75a6cccd39a648a3a0673e3adc7be98895b9152be6f0"),
    ("private/t-churned@7/tiers", "1568872c9d837e2ef518dfca6ac6688051a313d4c40895abc558340412411a84"),
    ("private/t-churned@7/trace", "5f5ba72cc9c22938ad126e94db867e930b10f543bcf8a40823b12475470acfdd"),
    ("private/t-churned@7/metrics", "7adb5ab696bf241ac38e8f5c6fc254b3d269e1ea1e17d3b362bf16122e6c5d87"),
    ("cold/t-churned@7/tiers", "1568872c9d837e2ef518dfca6ac6688051a313d4c40895abc558340412411a84"),
    ("shared/t-churned@7/tiers", "4b732c5e3ab9050254f2f3963066fa4d88e39820a3212204d0bb071f51dfe849"),
    ("shared/t-churned@7/divergence", "64b25bb416052005af59397c7a22dcfb44b8988c71cab052962e6c00235a7735"),
    ("shared/t-churned@7/load", "6190cabe6ffc1a8740040e696f69b13cf0bac4695a78db236828bdafe3a5c13c"),
    ("shared/t-churned@7/trace", "f18432b41cd45a6e4fef963f0cc408202da49b8eb295867da40a2bb2280aa7b1"),
    ("shared/t-churned@7/metrics", "80e82789b7a55b25797a9a0cd34f14f72a171dbc79535d02e260596f10b78e51"),
    ("rtr3All/t-churned@7/tiers", "5112c30837b87c16102cc3d5fc198a83bfa366bb7fcc5da5a11ac30f50496d58"),
    ("rtr3All/t-churned@7/rtr", "d117f2b9d0c2efcc21ceeca55fe5825b514302ad12ebf106262ae27094ac9bd6"),
    ("rtr3All/t-churned@7/trace", "dad94f20704d5a678665e46200cecaa672278b96453db33615ffbeaa4459d083"),
    ("rtr3All/t-churned@7/metrics", "b39416633381dc7dbf35a0ae2c9fd05bce6e890e4fcaff8f4a102ea92ff030ae"),
    ("private/odd-kinds@2013/tiers", "a8b7242dfea79630d6a0951ad6d02be74009deee06b75647e13d6114cffe7e1b"),
    ("private/odd-kinds@2013/trace", "d5b733d307f63fc794086ce631aab5156f47fc7a2e9e0fd39f9b342fd586e5e3"),
    ("private/odd-kinds@2013/metrics", "353277117035231dc8cc4e1bffedb90fe1bb17aa647a472a359799a33aa68c29"),
    ("shared/odd-kinds@2013/tiers", "a8b7242dfea79630d6a0951ad6d02be74009deee06b75647e13d6114cffe7e1b"),
    ("shared/odd-kinds@2013/divergence", "a556d943be16e1e6fa761d02ce41570284ffa0b25473f846013b93505f8d3ae5"),
    ("shared/odd-kinds@2013/load", "098500a8b9b09dcf2191698763e019bb855c0e77586792e1753104edcec20371"),
    ("shared/odd-kinds@2013/trace", "bd057aa8db6c99faa4fd8a0b860ff9282a887a3e414a1f0a7eb0b9a8889e5b8e"),
    ("shared/odd-kinds@2013/metrics", "a58acce245d5e3bcea812751f66e68e42bcfa5889b54ef30aabf53ba19dc70e9"),
    ("rtr3All/odd-kinds@2013/tiers", "a8b7242dfea79630d6a0951ad6d02be74009deee06b75647e13d6114cffe7e1b"),
    ("rtr3All/odd-kinds@2013/rtr", "9ec2672e958ef06ae5d362bb397563878cd7cf152d81af443e2f12dae0cf1207"),
    ("rtr3All/odd-kinds@2013/trace", "edf429d10a602fc6aad8bc5058bc78d500a7d32a9e9e02fb355cb90c8afdcecc"),
    ("rtr3All/odd-kinds@2013/metrics", "7be9036b3d01c510f1beaaa1c038af2cdbd49894c71560684de21830a940e213"),
    ("downgrade@2013/outcome", "c104c79075f6b3c706317dbf46a5705bf0780ee5ce514355aa3117f4012179d5"),
    ("downgrade@2013/trace", "3ec2ab35a77c14c1a0a2256ed5293b3cbfb1c998e709075217e131ca7b9898cd"),
    ("downgrade@2013/metrics", "51c00aa0a79e6cb66e174f3370218a247315904b2b3839d976320dee63ea3c8a"),
    ("downgrade@41/outcome", "589af25e1e538348be78711004ca99072ce432131723912848e486dd7e868521"),
    ("downgrade@41/trace", "3ec2ab35a77c14c1a0a2256ed5293b3cbfb1c998e709075217e131ca7b9898cd"),
    ("downgrade@41/metrics", "51c00aa0a79e6cb66e174f3370218a247315904b2b3839d976320dee63ea3c8a"),
    ("downgrade@17/outcome", "03343af1c13d131fec1e3cced5feba3ee9112279b720649f921a77f2072dfd54"),
    ("downgrade@17/trace", "3ec2ab35a77c14c1a0a2256ed5293b3cbfb1c998e709075217e131ca7b9898cd"),
    ("downgrade@17/metrics", "51c00aa0a79e6cb66e174f3370218a247315904b2b3839d976320dee63ea3c8a"),
    ("downgrade@23/outcome", "e8d50acdcb6f4674ab91a723acb24da40e29631594d63b72913b987a93fba86e"),
    ("downgrade@23/trace", "3ec2ab35a77c14c1a0a2256ed5293b3cbfb1c998e709075217e131ca7b9898cd"),
    ("downgrade@23/metrics", "51c00aa0a79e6cb66e174f3370218a247315904b2b3839d976320dee63ea3c8a"),
    ("scheduled/long-takedown@2013/schedule", "a657d13564e8f7c62305625a1bbd30dee1b5758ffc5e9f33f7508edb64e38e32"),
    ("scheduled/long-takedown@2013/trace", "e345c48baf8ff71963af84e8136431c20dda9836a34ad27d53ce45a2f99b8c42"),
    ("scheduled/long-takedown@2013/metrics", "cb24fe981c9b8cab58d62aa0aedc137ed89c8c17277d569d160a9d9813ffbd5b"),
];
