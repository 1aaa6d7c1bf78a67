//! Pinned digests of the transport's five entry points, one fault
//! script each.
//!
//! Each cell is one `(entry point, deadline, fault script)` session
//! against a two-repository world and contributes two rows: `result` —
//! the `{:?}` of what the entry point returned, the RRDP client's
//! stats and position, the network's frame counters, clock and idle
//! flag, both served-load ledgers, and every event the session left
//! queued — and `trace`, the session's JSONL trace plus its metrics
//! registry. The RRDP sync is pinned from five client positions (cold,
//! unchanged, a three-delta catch-up, a compacted snapshot with bridge
//! deltas, a session reset); the seeded-loss script is the
//! concatenation of 32 seeds so that some frame is always lost.
//!
//! A refactor of the transport may not move a row. An intentional
//! change prints the whole new table on mismatch; paste it over
//! [`PINS`].

use std::fmt::Write;

use netsim::{Network, NodeId, Occurrence};
use rpki_objects::{Encode, RepoUri};
use rpki_obs::Recorder;
use rpki_repo::{
    probe_dir, rrdp_probe_dir, rrdp_sync_dir, sync_dir, sync_dir_with_policy, PubdPolicy,
    RepoRegistry, RrdpClientState, RrdpRequest, RrdpResponse, RrdpSyncKind, RsyncRequest,
    RsyncResponse, SyncPolicy,
};
use rpkisim_crypto::sha256;

const HOST: &str = "rpki.sprint.example";
const OTHER: &str = "rpki.continental.example";

/// The per-session deadline of every cell that has one; the serve
/// delays and the stall below are chosen either side of it.
const DEADLINE: u64 = 300;

/// The two deadline timer tokens as they appear in traces. A timer
/// carrying one of them on a node that is not the client must not end
/// a session.
const RSYNC_DEADLINE_TOKEN: u64 = 0x5359_4e43_dead_0001;
const RRDP_DEADLINE_TOKEN: u64 = 0x5252_4450_dead_0001;

/// The token of the bystander's long timer, which every session must
/// leave queued.
const BYSTANDER_TOKEN: u64 = 7;

struct World {
    net: Network,
    repos: RepoRegistry,
    client: NodeId,
    server: NodeId,
    other: NodeId,
    bystander: NodeId,
    dir: RepoUri,
    other_dir: RepoUri,
}

fn world(seed: u64) -> World {
    let mut net = Network::new(seed);
    let client = net.add_node("relying-party");
    let bystander = net.add_node("bystander");
    let mut repos = RepoRegistry::new();
    let server = repos.create(&mut net, HOST);
    let other = repos.create(&mut net, OTHER);
    let dir = RepoUri::new(HOST, &["repo"]);
    let other_dir = RepoUri::new(OTHER, &["repo"]);
    let repo = repos.get_mut(server).expect("just created");
    repo.publish_raw(&dir, "a.roa", vec![1, 2, 3]);
    repo.publish_raw(&dir, "b.cer", vec![4, 5]);
    repo.publish_raw(&dir, "c.crl", vec![6; 40]);
    repo.publish_raw(&dir, "d.mft", vec![7, 8, 9, 10]);
    repos.get_mut(other).expect("just created").publish_raw(&other_dir, "x.roa", vec![11]);
    World { net, repos, client, server, other, bystander, dir, other_dir }
}

/// Where the RRDP client stands when the pinned sync starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Warm {
    /// No local state.
    Cold,
    /// Synced, nothing written since.
    Unchanged,
    /// Synced, then three writes: a three-delta catch-up.
    CatchUp,
    /// No local state against a compacting server whose snapshot
    /// trails the head by two serials.
    Bridge,
    /// Synced, then the server restarted its session.
    Reset,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Sync,
    SyncPolicy,
    Probe,
    RrdpProbe,
    Rrdp(Warm),
}

impl Entry {
    fn label(self) -> String {
        match self {
            Entry::Sync => "sync_dir".to_owned(),
            Entry::SyncPolicy => "sync_dir_with_policy".to_owned(),
            Entry::Probe => "probe_dir".to_owned(),
            Entry::RrdpProbe => "rrdp_probe_dir".to_owned(),
            Entry::Rrdp(warm) => format!("rrdp_sync_dir-{warm:?}").to_lowercase(),
        }
    }

    fn is_rrdp(self) -> bool {
        matches!(self, Entry::RrdpProbe | Entry::Rrdp(_))
    }

    /// A probe is one exchange: scripts aimed at a later frame never
    /// fire in it.
    fn exchanges_once(self) -> bool {
        matches!(self, Entry::Probe | Entry::RrdpProbe)
    }
}

const ENTRIES: [Entry; 9] = [
    Entry::Sync,
    Entry::SyncPolicy,
    Entry::Probe,
    Entry::RrdpProbe,
    Entry::Rrdp(Warm::Cold),
    Entry::Rrdp(Warm::Unchanged),
    Entry::Rrdp(Warm::CatchUp),
    Entry::Rrdp(Warm::Bridge),
    Entry::Rrdp(Warm::Reset),
];

/// One way the wire or the server misbehaves during the pinned
/// session. Frame indices count from the session's first frame in that
/// direction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Script {
    Clean,
    /// The n-th client→server frame is dropped.
    DropRequest(u64),
    /// The n-th server→client frame is dropped.
    DropReply(u64),
    /// The n-th reply has its tag byte flipped: it does not decode.
    TearReply(u64),
    /// The n-th reply has its last byte flipped: it decodes, and a
    /// digest has to catch it.
    CorruptReplyTail(u64),
    /// The n-th reply has the low byte of the field after its
    /// directory and first u64 flipped (an RRDP serial).
    CorruptReplySerial(u64),
    /// The n-th request has its tag byte flipped: the server cannot
    /// parse it and stays silent.
    CorruptRequest(u64),
    /// Replies are held on the link for an hour.
    Stall,
    Partition,
    /// A slow server: every answer is held this long.
    ServeDelay(u64),
    RrdpOffline,
    WithholdDeltas,
    /// The RRDP feed is frozen, then the directory is written to.
    Pinned,
    /// 5 % seeded loss in both directions, 32 seeds.
    Loss,
    /// A third node talks to the client, to both repositories in both
    /// protocols, and sets timers — among them the deadline tokens on
    /// the wrong node and one that outlives the session.
    CrossTraffic,
}

impl Script {
    fn label(self) -> String {
        format!("{self:?}").to_lowercase()
    }

    fn applies_to(self, entry: Entry) -> bool {
        match self {
            Script::DropRequest(n)
            | Script::DropReply(n)
            | Script::TearReply(n)
            | Script::CorruptReplyTail(n)
            | Script::CorruptRequest(n) => n == 1 || !entry.exchanges_once(),
            Script::CorruptReplySerial(n) => entry.is_rrdp() && (n == 1 || !entry.exchanges_once()),
            Script::RrdpOffline | Script::Pinned => entry.is_rrdp(),
            Script::WithholdDeltas => matches!(entry, Entry::Rrdp(_)),
            _ => true,
        }
    }

    fn install(self, w: &mut World) {
        let (client, server) = (w.client, w.server);
        // Tag, directory, one u64 (the session), then the serial.
        let serial_low_byte = 1 + w.dir.to_bytes().len() + 8 + 7;
        match self {
            Script::Clean | Script::Loss => {}
            Script::DropRequest(n) => w.net.faults.drop_nth(client, server, n),
            Script::DropReply(n) => w.net.faults.drop_nth(server, client, n),
            Script::TearReply(n) => w.net.faults.corrupt_nth(server, client, n),
            Script::CorruptReplyTail(n) => {
                w.net.faults.corrupt_nth_at(server, client, n, usize::MAX);
            }
            Script::CorruptReplySerial(n) => {
                w.net.faults.corrupt_nth_at(server, client, n, serial_low_byte);
            }
            Script::CorruptRequest(n) => w.net.faults.corrupt_nth(client, server, n),
            Script::Stall => w.net.faults.set_stall(server, client, 3600),
            Script::Partition => w.net.faults.partition(client, server),
            Script::ServeDelay(hold) => w.net.faults.set_stall(server, client, hold),
            Script::RrdpOffline => w.repos.get_mut(server).expect("exists").set_rrdp_offline(true),
            Script::WithholdDeltas => {
                w.repos.get_mut(server).expect("exists").set_rrdp_withhold_deltas(true);
            }
            Script::Pinned => {
                let repo = w.repos.get_mut(server).expect("exists");
                repo.rrdp_pin();
                repo.publish_raw(&w.dir, "z.roa", vec![12, 13]);
            }
            Script::CrossTraffic => {
                let by = w.bystander;
                let (dir, other_dir) = (w.dir.clone(), w.other_dir.clone());
                // To the client: junk, then a well-formed answer in each
                // protocol that would change the outcome if accepted.
                w.net.send(by, client, vec![0xde, 0xad]);
                w.net.send(
                    by,
                    client,
                    RsyncResponse::NotFound { dir: dir.clone(), name: None }.to_bytes(),
                );
                w.net.send(
                    by,
                    client,
                    RrdpResponse::NotFound { dir: dir.clone(), serial: None }.to_bytes(),
                );
                // To the server in both protocols (one of them is not
                // this session's), and to the other repository.
                w.net.send(by, server, RsyncRequest::Digest { dir: dir.clone() }.to_bytes());
                w.net.send(by, server, RrdpRequest::Notification { dir }.to_bytes());
                w.net.send_after(by, w.other, RsyncRequest::List { dir: other_dir }.to_bytes(), 15);
                w.net.set_timer(by, 15, RSYNC_DEADLINE_TOKEN);
                w.net.set_timer(by, 15, RRDP_DEADLINE_TOKEN);
                w.net.set_timer(client, 15, 0x1234);
                w.net.set_timer(by, 100_000, BYSTANDER_TOKEN);
            }
        }
    }
}

const SCRIPTS: [Script; 26] = [
    Script::Clean,
    Script::DropRequest(1),
    Script::DropRequest(2),
    Script::DropReply(1),
    Script::DropReply(2),
    Script::DropReply(3),
    Script::TearReply(1),
    Script::TearReply(2),
    Script::TearReply(3),
    Script::CorruptReplyTail(1),
    Script::CorruptReplyTail(2),
    Script::CorruptReplyTail(3),
    Script::CorruptReplySerial(1),
    Script::CorruptReplySerial(2),
    Script::CorruptReplySerial(3),
    Script::CorruptRequest(1),
    Script::CorruptRequest(2),
    Script::Stall,
    Script::Partition,
    Script::ServeDelay(100),
    Script::ServeDelay(500),
    Script::RrdpOffline,
    Script::WithholdDeltas,
    Script::Pinned,
    Script::Loss,
    Script::CrossTraffic,
];

/// The scripts run a second time with `deadline: None` (the timer must
/// never be set, and the session must still end).
const NO_DEADLINE: [Script; 5] = [
    Script::Clean,
    Script::DropReply(1),
    Script::CorruptRequest(1),
    Script::Stall,
    Script::ServeDelay(500),
];

/// Brings the RRDP client and the server to `warm` over a clean wire.
fn warm_up(w: &mut World, warm: Warm) -> RrdpClientState {
    let mut state = RrdpClientState::new();
    let mut sync = |w: &mut World| {
        rrdp_sync_dir(&mut w.net, &w.repos, w.client, &w.dir, &mut state, None)
            .expect("clean warm-up sync");
    };
    match warm {
        Warm::Cold => {}
        Warm::Unchanged => sync(w),
        Warm::CatchUp => {
            sync(w);
            let repo = w.repos.get_mut(w.server).expect("exists");
            repo.publish_raw(&w.dir, "e.roa", vec![14, 15]);
            repo.delete(&w.dir, "a.roa");
            repo.publish_raw(&w.dir, "b.cer", vec![16]);
        }
        Warm::Bridge => {
            let repo = w.repos.get_mut(w.server).expect("exists");
            repo.set_pubd_policy(PubdPolicy::compacted(4));
            repo.publish_raw(&w.dir, "e.roa", vec![14, 15]);
            repo.delete(&w.dir, "a.roa");
        }
        Warm::Reset => {
            sync(w);
            assert!(w.repos.get_mut(w.server).expect("exists").rrdp_reset_session(&w.dir));
        }
    }
    state
}

/// Runs one cell and returns its `(result, trace)` texts.
fn session(entry: Entry, script: Script, deadline: Option<u64>, seed: u64) -> (String, String) {
    let mut w = world(seed);
    let mut state = match entry {
        Entry::Rrdp(warm) => warm_up(&mut w, warm),
        _ => RrdpClientState::new(),
    };
    if script == Script::Loss {
        w.net.faults.set_loss(w.client, w.server, 0.05);
        w.net.faults.set_loss(w.server, w.client, 0.05);
    }
    script.install(&mut w);
    let rec = Recorder::new();
    w.net.set_recorder(rec.clone());

    let returned = match entry {
        Entry::Sync => format!("{:?}", sync_dir(&mut w.net, &w.repos, w.client, &w.dir)),
        Entry::SyncPolicy => {
            let policy = SyncPolicy { attempts: 3, backoff: 30, deadline };
            let out = sync_dir_with_policy(&mut w.net, &w.repos, w.client, &w.dir, &policy);
            format!("{out:?}")
        }
        Entry::Probe => {
            format!("{:?}", probe_dir(&mut w.net, &w.repos, w.client, &w.dir, deadline))
        }
        Entry::RrdpProbe => {
            format!("{:?}", rrdp_probe_dir(&mut w.net, &w.repos, w.client, &w.dir, deadline))
        }
        Entry::Rrdp(warm) => {
            let out = rrdp_sync_dir(&mut w.net, &w.repos, w.client, &w.dir, &mut state, deadline);
            if script == Script::Clean {
                // The pins are only worth something if each position
                // takes the path its name says.
                let kind = out.as_ref().expect("clean sync succeeds").1;
                let bridged = state.stats().bridge_deltas_applied;
                match warm {
                    Warm::Cold => assert_eq!((kind, bridged), (RrdpSyncKind::Snapshot, 0)),
                    Warm::Unchanged => assert_eq!(kind, RrdpSyncKind::Unchanged),
                    Warm::CatchUp => assert_eq!(kind, RrdpSyncKind::Deltas(3)),
                    Warm::Bridge => assert_eq!((kind, bridged), (RrdpSyncKind::Snapshot, 2)),
                    Warm::Reset => assert_eq!(kind, RrdpSyncKind::SessionReset),
                }
            }
            format!("{out:?}")
        }
    };
    let mut result = returned + "\n";
    if entry.is_rrdp() {
        writeln!(result, "{:?} {:?} {}", state.stats(), state.position(&w.dir), state.epoch())
            .expect("string write");
    }
    writeln!(result, "{:?} now={} busy={}", w.net.stats(), w.net.now(), !w.net.is_idle())
        .expect("string write");
    for node in [w.server, w.other] {
        let repo = w.repos.get(node).expect("exists");
        writeln!(result, "{:?} {:?}", repo.served_total(), repo.pubd_served_total())
            .expect("string write");
    }
    let trace = rec.trace_jsonl() + &rec.metrics().to_json();

    // Whatever the session left queued. Nobody answers from here on.
    w.net.set_recorder(Recorder::disabled());
    let residue = w.net.run_to_idle();
    if script == Script::CrossTraffic {
        let timer = Occurrence::Timer { node: w.bystander, token: BYSTANDER_TOKEN };
        assert!(residue.contains(&timer), "{}: the bystander's timer was consumed", entry.label());
    }
    writeln!(result, "{residue:?}").expect("string write");
    (result, trace)
}

/// Collects `(label, digest)` rows in run order.
#[derive(Default)]
struct Table(Vec<(String, String)>);

impl Table {
    fn bytes(&mut self, run: &str, table: &str, bytes: &str) {
        self.0.push((format!("{run}/{table}"), sha256(bytes.as_bytes()).to_hex()));
    }

    fn cell(&mut self, entry: Entry, script: Script, deadline: Option<u64>) {
        let run = format!(
            "{}{}/{}",
            entry.label(),
            if deadline.is_none() && entry != Entry::Sync { "-nodeadline" } else { "" },
            script.label()
        );
        let seeds = if script == Script::Loss { 1..=32 } else { 1..=1 };
        let (mut result, mut trace) = (String::new(), String::new());
        for seed in seeds {
            let (r, t) = session(entry, script, deadline, seed);
            result.push_str(&r);
            trace.push_str(&t);
        }
        self.bytes(&run, "result", &result);
        self.bytes(&run, "trace", &trace);
    }
}

#[test]
fn every_entry_point_matches_its_pinned_digests() {
    let mut t = Table::default();
    for entry in ENTRIES {
        // `sync_dir` takes no deadline; everything else runs with one,
        // then a few scripts again without.
        let deadline = (entry != Entry::Sync).then_some(DEADLINE);
        for script in SCRIPTS.into_iter().filter(|s| s.applies_to(entry)) {
            t.cell(entry, script, deadline);
        }
        if entry != Entry::Sync {
            for script in NO_DEADLINE {
                t.cell(entry, script, None);
            }
        }
    }
    let got = t.0;
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
            "transport fingerprints moved: {moved:?}\n\
             if intentional, replace PINS with:\n\
             const PINS: &[(&str, &str)] = &[\n{table}];"
        );
    }
}

#[rustfmt::skip]
const PINS: &[(&str, &str)] = &[
    ("sync_dir/clean/result", "35e054b630efb7576d242f023f6ff7e976ab26f2f6ea3adc43a9ddeef561360d"),
    ("sync_dir/clean/trace", "ad56545e823db3d7a5ae9c5c812726e071800cb6aac6dad73bda99cfda2f1829"),
    ("sync_dir/droprequest(1)/result", "c834dbe651469ce5c0be79b13a52d6d23e7f177deb360b28693c050cc2d7115f"),
    ("sync_dir/droprequest(1)/trace", "544b851e0762e8778d794de35af92938dcbe4c90af3a4a9044c827079643c83e"),
    ("sync_dir/droprequest(2)/result", "6e303acb0fa75afccbc1c4e7f9d1088e8c6e2366fb1776c7cebaeddeb45f76ec"),
    ("sync_dir/droprequest(2)/trace", "ec84f0f9a87082ec75b529bbb25e14885f4e395e92b8b1324e4ced313a8b4f78"),
    ("sync_dir/dropreply(1)/result", "2cb1e38feb6eabb834b4accc1befaba3114ea17ca3f4bf0ba8d05416b62dd489"),
    ("sync_dir/dropreply(1)/trace", "0ce5ff71a07dbb3ea1b3c5629e521a2a7834de81f79abcfe12b0b46a12298779"),
    ("sync_dir/dropreply(2)/result", "c9952b1fa813d8556ff7402fcf094a2ef278cdb243357f4a5be58a4407d71196"),
    ("sync_dir/dropreply(2)/trace", "5a57a9c0c3bfac037518b77f91e0722b58e35337415df045c1c65f6e69898e7f"),
    ("sync_dir/dropreply(3)/result", "a06a72f7579e2ef236ec0ff777e46053095deec0f0a335003276f1ceea5c120d"),
    ("sync_dir/dropreply(3)/trace", "f9d86f2c77c0c98236a0503c51effdf9930a68168b5f1473987a2bdf09fd5fb0"),
    ("sync_dir/tearreply(1)/result", "4aa0e0e3198612df8e2f1a259247cbb3cbcf6aa278df212cc9ac4566e3a05eaf"),
    ("sync_dir/tearreply(1)/trace", "4a9b9e0b4b52fe7a58ba94490e32e8471484539526f342322c1913b16c8528f9"),
    ("sync_dir/tearreply(2)/result", "1c3f6faebaac4c862f207339a6cb1d2aa3aaa872985d96ced24ba3477ace1b27"),
    ("sync_dir/tearreply(2)/trace", "70c2e5dfd99f9bb540caaa61efdbb9f253d24d7ad26bf391d346afde82be8167"),
    ("sync_dir/tearreply(3)/result", "3143d4d03e0488a46b57402e796352730d3058f25dd9f4a7905afb0c6cc7db68"),
    ("sync_dir/tearreply(3)/trace", "25fc09a000e3c35b5332769844289c7da5d9b4be1c05f9aa53244107c5a07d30"),
    ("sync_dir/corruptreplytail(1)/result", "99946aeba5b978ee5c614b432d4f7c21c5d51abf87ce26325b4b6965c221f7b6"),
    ("sync_dir/corruptreplytail(1)/trace", "4857e3a86c064dbedeb0b4294b77e0d13e30c1c4d2f59fecc6499cd7175e0f2d"),
    ("sync_dir/corruptreplytail(2)/result", "d680f8790ce7342812b0f185bc6692ba9491cb3fe5d5e454fb6152552e7d3255"),
    ("sync_dir/corruptreplytail(2)/trace", "0701c059610baa89207de8f72ec698b845035697572a6dd55bfc494a5a38b062"),
    ("sync_dir/corruptreplytail(3)/result", "db4f1ebb34419f03e6bf72b7b290365a604ac7955aee397df06612e404026f33"),
    ("sync_dir/corruptreplytail(3)/trace", "d67c91aa68e9bb25591c8fd66c3a44449bc2afd8b936403c036720ef3a6ed3e0"),
    ("sync_dir/corruptrequest(1)/result", "aaf84d6ef062ac27e58c172b151f0016337932879556d613145e8e2fbd348b6d"),
    ("sync_dir/corruptrequest(1)/trace", "04810d1ef9929bd0f1a37b9a4ec3a8305d94ab41905598d39f644b4c2a0f40a1"),
    ("sync_dir/corruptrequest(2)/result", "459868e864f66edc0fdf486cf9f56f30ffc8f4cec7d8e90978e304cbea07d3c1"),
    ("sync_dir/corruptrequest(2)/trace", "3d8e5bfde1fc9dc47e17aadee5b98b0afb43c4a13aa3ccfdd376933a66b30658"),
    ("sync_dir/stall/result", "61bb2edcf152f840ebb455d2509237a01dee1d69efa9ebcb0bcf106cf32186db"),
    ("sync_dir/stall/trace", "f18bb2dc7a5febda515ac28995d7b8439a2181ba708e6ea1cc636bae375a3c55"),
    ("sync_dir/partition/result", "c834dbe651469ce5c0be79b13a52d6d23e7f177deb360b28693c050cc2d7115f"),
    ("sync_dir/partition/trace", "717c3b861a69cbb24ce195d6e65d57ff1eec9ffaa2546499ab526ea5e0c756dc"),
    ("sync_dir/servedelay(100)/result", "946798f6513c2cfe24421bee82d43656ee03d90fa8269408257a02918559be22"),
    ("sync_dir/servedelay(100)/trace", "de0573220642e943f0979b16b14a56a478b337ac680c447a64f0ff86c5376b0c"),
    ("sync_dir/servedelay(500)/result", "8d78b5620ad6b62fca2024c8c3a2b22d354520dd3a0974f821548b2172388d33"),
    ("sync_dir/servedelay(500)/trace", "3c5fb0ce0a7e77526b10c99f11b51088e3b8d4bde30cd64e8e076918532d288e"),
    ("sync_dir/loss/result", "3bd769093e62541ad1bcbc38b314112422c11b1e3366bc0b090226ca1043e2ee"),
    ("sync_dir/loss/trace", "64be5560368559ac13e9ad66f4c78a1b431d520f5966c16c5244ff21cafedac2"),
    ("sync_dir/crosstraffic/result", "82b1cb1e52ac208bdfbf4b138cb64c21c0e640f4ff3824f578b008f7338f353a"),
    ("sync_dir/crosstraffic/trace", "a8b32afb2abaadbc8db34e1453f42c8f75124f429e86d66ba11d0213e1ef5d03"),
    ("sync_dir_with_policy/clean/result", "e3859f4cfbadec25476da82cf39305c6a9462cdeee4548a834d0328d0f30bd89"),
    ("sync_dir_with_policy/clean/trace", "6929f04b9a04c7c089e7dfff3083f886187e77af6f0ce799758cb4741ef3c0c3"),
    ("sync_dir_with_policy/droprequest(1)/result", "002b1b637335f600682c1eca4ba1878ef83f91fad0efb996fbea94d0bbad0cf4"),
    ("sync_dir_with_policy/droprequest(1)/trace", "a77a99e4ad0293bca944aefbbc3f33ba19a17992893adb9e68a03ead4fafc07c"),
    ("sync_dir_with_policy/droprequest(2)/result", "672546422b5b354f4a1e2080f3500b33a225ee4ad267ccf9dbdcd605c1bfb416"),
    ("sync_dir_with_policy/droprequest(2)/trace", "91f445ce242f25b55d9777ffd7968b906fcf70bff306de0d0c9898668d869e42"),
    ("sync_dir_with_policy/dropreply(1)/result", "9b735467df05661702813bf6f59c4c10e42e8afb5922f47a099bd43886e34e57"),
    ("sync_dir_with_policy/dropreply(1)/trace", "f36114f7206df23ff952fe96e67dba629d1c770e438595422e1cc119b49c08bc"),
    ("sync_dir_with_policy/dropreply(2)/result", "8ed1bcb7cf64e0a44ff2ad1ffbc23965f6b09a22ee17b4ba39b2fec845f8fd7b"),
    ("sync_dir_with_policy/dropreply(2)/trace", "9eba08360cdcdb4552728df77b264d70b71b90270dcc773db3033c90dee9914c"),
    ("sync_dir_with_policy/dropreply(3)/result", "55a21e7b8e56edda1390daad73696d5a65b141f653134ada7d4d0ed776b8dec3"),
    ("sync_dir_with_policy/dropreply(3)/trace", "1559524758b65a06805cba5dc8bae3f5f7d8bb9cbbfd4f531e787c5302f22b3e"),
    ("sync_dir_with_policy/tearreply(1)/result", "736ce3c29cde2cae277060efe459e497116d1be1dca3aaf33c0244cf30fe868a"),
    ("sync_dir_with_policy/tearreply(1)/trace", "c857f1a0a1d89e6d963d3da3390b744923d6827e3e1a456d9befff0b47356801"),
    ("sync_dir_with_policy/tearreply(2)/result", "5ac69d30c922c6d3d9c9a2a8b341e68c017b055ee796fc23a01b8088c270922d"),
    ("sync_dir_with_policy/tearreply(2)/trace", "c1c04bf6765556d673170528b82f11ba16da4cf8ce2e35eb1c5f4ebcddbc4ece"),
    ("sync_dir_with_policy/tearreply(3)/result", "c8533bb4a3564cff1feacb610c8bd79e2aff70c644525288d9be293414393b6d"),
    ("sync_dir_with_policy/tearreply(3)/trace", "9ee9f3faa31e0bb2a93d3cb05c99d0427ff9eb303672eb88d929354b6503b872"),
    ("sync_dir_with_policy/corruptreplytail(1)/result", "367e87cc829ad6e4f23bb56908c85f19af4092f226fc2107ac30b35ab612ab84"),
    ("sync_dir_with_policy/corruptreplytail(1)/trace", "f9826c06d091de2adfd3d314b85c34b959b47d27a9f8b639977fafc525f7e103"),
    ("sync_dir_with_policy/corruptreplytail(2)/result", "590765ae1e2f41a273ab7a996804d27f6f99f1454b2f08495418ddc718530a87"),
    ("sync_dir_with_policy/corruptreplytail(2)/trace", "a61d2420012b224fb484c8616c987132a7a92fa9652b9cc2290048bb38097fa5"),
    ("sync_dir_with_policy/corruptreplytail(3)/result", "c2e82b3e6b4821f0066f186bd19901d94492f8e1f6e250b7e999406d18c4d765"),
    ("sync_dir_with_policy/corruptreplytail(3)/trace", "0bcdc36cbf5ec6f0ab72e182a1cd192769cb92d277e24f92eca4fd27d749a651"),
    ("sync_dir_with_policy/corruptrequest(1)/result", "3a16b5319e4610c2fae012eca0894241c215ba5d11d3552dcfbeb0b6248815fa"),
    ("sync_dir_with_policy/corruptrequest(1)/trace", "a90599585e3ae2cedefe4de5b797066573bd5e3015974d1bfdc117fe5e870834"),
    ("sync_dir_with_policy/corruptrequest(2)/result", "ca5260cce1fc9036169cc10e94b7f51d0d39688acc8d30bd6ec037541cf04b50"),
    ("sync_dir_with_policy/corruptrequest(2)/trace", "e6582f40d4934362160f96f20a5f370903f96ddfb66199e733aec75c70c2deb3"),
    ("sync_dir_with_policy/stall/result", "5787b2f28cdb03a943c7030da0e775929b9cd85c988b58e6a65776b46bd623f0"),
    ("sync_dir_with_policy/stall/trace", "a90842037109eba7b1887540c11e791e0dfe6027cf5f00dec232c11651c079fe"),
    ("sync_dir_with_policy/partition/result", "4cf93c93d8e81a1c0ed225cb2dee27d8df792a473cef9efeaaf940d65865164b"),
    ("sync_dir_with_policy/partition/trace", "44e7e8b2aa16fd2bf1a155670fbbdc58a3fdf307cef3b94feb3d6e8cdff6a725"),
    ("sync_dir_with_policy/servedelay(100)/result", "97bc15c6a36128bfad881d8bda1042bc6058226d94e94c13ae596a62da4a426e"),
    ("sync_dir_with_policy/servedelay(100)/trace", "0c92c2a3dace978be4420917ae194066a1ac6d72209d43d3a25cb62871de4553"),
    ("sync_dir_with_policy/servedelay(500)/result", "5787b2f28cdb03a943c7030da0e775929b9cd85c988b58e6a65776b46bd623f0"),
    ("sync_dir_with_policy/servedelay(500)/trace", "f6a3f2a59398e1e707f2ba0c679930a93066170e9ba1d785e58858d26993426c"),
    ("sync_dir_with_policy/loss/result", "446290cd1640031f7094bb3d5742d815ac026a1c91a1e6c047c62428649a7349"),
    ("sync_dir_with_policy/loss/trace", "6e7a787952ab358001c0448f791ad2dcb39b2c46d5ae3a069ed28bb7b53ca047"),
    ("sync_dir_with_policy/crosstraffic/result", "75c923386e72462f2f1c69c64b2acccb54df7b5453ede3ec30fad56fbeda7803"),
    ("sync_dir_with_policy/crosstraffic/trace", "2123a7c93359f9082fb8ef87bd496bfead4f288fe4da0fb70f422f89d24ce759"),
    ("sync_dir_with_policy-nodeadline/clean/result", "e3859f4cfbadec25476da82cf39305c6a9462cdeee4548a834d0328d0f30bd89"),
    ("sync_dir_with_policy-nodeadline/clean/trace", "6929f04b9a04c7c089e7dfff3083f886187e77af6f0ce799758cb4741ef3c0c3"),
    ("sync_dir_with_policy-nodeadline/dropreply(1)/result", "9b735467df05661702813bf6f59c4c10e42e8afb5922f47a099bd43886e34e57"),
    ("sync_dir_with_policy-nodeadline/dropreply(1)/trace", "f36114f7206df23ff952fe96e67dba629d1c770e438595422e1cc119b49c08bc"),
    ("sync_dir_with_policy-nodeadline/corruptrequest(1)/result", "3a16b5319e4610c2fae012eca0894241c215ba5d11d3552dcfbeb0b6248815fa"),
    ("sync_dir_with_policy-nodeadline/corruptrequest(1)/trace", "a90599585e3ae2cedefe4de5b797066573bd5e3015974d1bfdc117fe5e870834"),
    ("sync_dir_with_policy-nodeadline/stall/result", "c050a52077ed135c12134a566fc66d31674d13e82e7073ef8df5b0b3286240c7"),
    ("sync_dir_with_policy-nodeadline/stall/trace", "628960733ea04cb4207a7efac51de455057d7e4556b89a7a5c7ee819b748fabf"),
    ("sync_dir_with_policy-nodeadline/servedelay(500)/result", "74559500bb711e5575bc26f276276a50384a49d30d4344b8a68b94d3b1f327da"),
    ("sync_dir_with_policy-nodeadline/servedelay(500)/trace", "531590a7de2c1226a04be5c42bbed3ea4e0611f7164aca8583c993f7f746a81c"),
    ("probe_dir/clean/result", "c710309cec2aa81d779534962da84a8010f1bdbd119429d01dd02a278d761a93"),
    ("probe_dir/clean/trace", "067909de9c2391edcce8eac75a77476007678635c02f89450193720279a86cb4"),
    ("probe_dir/droprequest(1)/result", "8a5c0215b270cb3a9b5fc6bb93bc536b9d8f9d54693743b6c149056ec3c4117e"),
    ("probe_dir/droprequest(1)/trace", "a57e30b9e74239c3f15ebc0b587bb5050e2353815db7b23db19648924e4f304a"),
    ("probe_dir/dropreply(1)/result", "50ced18e19a20a671aa222f27a6fc01bc24f33cb4d71343ac54f6d113f3c7b6b"),
    ("probe_dir/dropreply(1)/trace", "030ecd4b550089fb421e991228c463a0388cd217744dea5e2bac9fd483822fc0"),
    ("probe_dir/tearreply(1)/result", "164addf27c810cd519bb3f30cfad9266bba33232b7bbd6e56a7ec056adad7c57"),
    ("probe_dir/tearreply(1)/trace", "91c98d37e997816a5f124d7e3e1b4b8448f98424191794e4ddf45f1c4f830f13"),
    ("probe_dir/corruptreplytail(1)/result", "6c827b18f02605d9cc42f8751d06527c759ccd1e33bb9f7b133a7f93bd50cd4d"),
    ("probe_dir/corruptreplytail(1)/trace", "522b976833ee6533454baca7add53b6deffd8f037ff95ea56c9de2b01c81a631"),
    ("probe_dir/corruptrequest(1)/result", "eb2bb4dc3aa75e515f5a6bfaa0a2e23dce8a24754175b153e09bb13b2f0d95c2"),
    ("probe_dir/corruptrequest(1)/trace", "c8e40cfb54a0a115a1f64fb9fb5c361aa04473ced7c71d44e1cf994ab39323cc"),
    ("probe_dir/stall/result", "e3f9b700adceae82c93b7db1ab8d859b92faeea3fb3552b2399111a72c92ff89"),
    ("probe_dir/stall/trace", "8cd3da6553984291e57806bf802709cc3e58b1e02923a1687bbe5fd88262776b"),
    ("probe_dir/partition/result", "8a5c0215b270cb3a9b5fc6bb93bc536b9d8f9d54693743b6c149056ec3c4117e"),
    ("probe_dir/partition/trace", "d826b7a7ad160faf436953fb1c9e5c2f1c48e5803c56bb303bb6e885108c8f4f"),
    ("probe_dir/servedelay(100)/result", "47224e96c12968a08b0de59d56d91c63216b50648da052c5e9dea21b88cf2ddf"),
    ("probe_dir/servedelay(100)/trace", "ca4d3516fa5e7f4e5c28eef3efd4a1a54ead82085888779b0cd15833558abe98"),
    ("probe_dir/servedelay(500)/result", "e3f9b700adceae82c93b7db1ab8d859b92faeea3fb3552b2399111a72c92ff89"),
    ("probe_dir/servedelay(500)/trace", "8177d37a2e75d99d4d073656272b0c5dea05042a2e15c36aed28f5e8a2410a79"),
    ("probe_dir/loss/result", "d1d9329fd959ec900a012b52d84ff66bab5946b48d284504fe234ad2b5c1b873"),
    ("probe_dir/loss/trace", "0af38910041e72bb2916af5143246209cbe1492e292eeb8e29233b72e8abb77e"),
    ("probe_dir/crosstraffic/result", "43787e709cc48e04eabf6ba54913e3087dd9d987c3205489d59a4634fe409a17"),
    ("probe_dir/crosstraffic/trace", "6de0ef3766ec002b3065d7a1c5f8e86b9831c57bc10d11f7eceee393d21b2272"),
    ("probe_dir-nodeadline/clean/result", "c710309cec2aa81d779534962da84a8010f1bdbd119429d01dd02a278d761a93"),
    ("probe_dir-nodeadline/clean/trace", "067909de9c2391edcce8eac75a77476007678635c02f89450193720279a86cb4"),
    ("probe_dir-nodeadline/dropreply(1)/result", "50ced18e19a20a671aa222f27a6fc01bc24f33cb4d71343ac54f6d113f3c7b6b"),
    ("probe_dir-nodeadline/dropreply(1)/trace", "030ecd4b550089fb421e991228c463a0388cd217744dea5e2bac9fd483822fc0"),
    ("probe_dir-nodeadline/corruptrequest(1)/result", "eb2bb4dc3aa75e515f5a6bfaa0a2e23dce8a24754175b153e09bb13b2f0d95c2"),
    ("probe_dir-nodeadline/corruptrequest(1)/trace", "c8e40cfb54a0a115a1f64fb9fb5c361aa04473ced7c71d44e1cf994ab39323cc"),
    ("probe_dir-nodeadline/stall/result", "f254c6b15914a79f84a49a621489b7c00171f65f3ac433b11d3eae282e484d4c"),
    ("probe_dir-nodeadline/stall/trace", "931e496604c6df8fa14118458423bbdc667a0332924ad54bc5e530773c470c51"),
    ("probe_dir-nodeadline/servedelay(500)/result", "56213e4de7791a283aa0ae04dd770e7f4c31d50d7751b5143145c13d20578e5f"),
    ("probe_dir-nodeadline/servedelay(500)/trace", "21f7cf4cd1e2f42d3cd85b4127f52b94589299fb8e278eacae80d4d17d27d111"),
    ("rrdp_probe_dir/clean/result", "0025a264179d04724454d28eaaf29f9ec4adfcf454defb142b08b6be011702b8"),
    ("rrdp_probe_dir/clean/trace", "fb0833536d98b4f6232ead26c104bcf71dd6027cb0e1cc1061f2d146445bbb71"),
    ("rrdp_probe_dir/droprequest(1)/result", "561cf429d5dcd7e3b4e6e2263b9b04113d4c390e83cf45fcea53f52275fedbc3"),
    ("rrdp_probe_dir/droprequest(1)/trace", "544b851e0762e8778d794de35af92938dcbe4c90af3a4a9044c827079643c83e"),
    ("rrdp_probe_dir/dropreply(1)/result", "c75c126586bebb2c1b7c844aa4d1a078a4d0c401c6c81862ce75a1066cb05c0d"),
    ("rrdp_probe_dir/dropreply(1)/trace", "7d9cf796ca28f06ae5f5e446a135a55bfe7aaf3057a2ab0e63c1597cc21385eb"),
    ("rrdp_probe_dir/tearreply(1)/result", "c40ac41ffd8ecd559bd99631b6fc8a734af82874a04ac4d06de08e3c7f280128"),
    ("rrdp_probe_dir/tearreply(1)/trace", "9e902eea52185e4cc3e85a2cefe0afd0b03ea8ace70a031c17ed89dcf9010d83"),
    ("rrdp_probe_dir/corruptreplytail(1)/result", "44dee0f0474d8c98f570a58b7c783d45cad80e8a27b0a359beee1aca4cf833cd"),
    ("rrdp_probe_dir/corruptreplytail(1)/trace", "9e902eea52185e4cc3e85a2cefe0afd0b03ea8ace70a031c17ed89dcf9010d83"),
    ("rrdp_probe_dir/corruptreplyserial(1)/result", "44dee0f0474d8c98f570a58b7c783d45cad80e8a27b0a359beee1aca4cf833cd"),
    ("rrdp_probe_dir/corruptreplyserial(1)/trace", "9e902eea52185e4cc3e85a2cefe0afd0b03ea8ace70a031c17ed89dcf9010d83"),
    ("rrdp_probe_dir/corruptrequest(1)/result", "e89a57c6a2d79e5845dd1c557b5a2b09f89e362b59b28c21a448747d0dc94aaf"),
    ("rrdp_probe_dir/corruptrequest(1)/trace", "04810d1ef9929bd0f1a37b9a4ec3a8305d94ab41905598d39f644b4c2a0f40a1"),
    ("rrdp_probe_dir/stall/result", "1de8182e29f1c164a0245e5d0251c31c73fe4ce2e658602af5940ceedb3dfd41"),
    ("rrdp_probe_dir/stall/trace", "4fed4ffa3f8a9e819d21c4f236ca4833605d7dd274e08ce9b773c0cd58a4b29a"),
    ("rrdp_probe_dir/partition/result", "561cf429d5dcd7e3b4e6e2263b9b04113d4c390e83cf45fcea53f52275fedbc3"),
    ("rrdp_probe_dir/partition/trace", "717c3b861a69cbb24ce195d6e65d57ff1eec9ffaa2546499ab526ea5e0c756dc"),
    ("rrdp_probe_dir/servedelay(100)/result", "e6910a19b110a546d02b3a46a177fb5113d5e5520592f06c01ba30cae5fbb813"),
    ("rrdp_probe_dir/servedelay(100)/trace", "be896850c3ff51d3a1989d3f6501d01313dbf878544873531084070f23ed83bd"),
    ("rrdp_probe_dir/servedelay(500)/result", "1de8182e29f1c164a0245e5d0251c31c73fe4ce2e658602af5940ceedb3dfd41"),
    ("rrdp_probe_dir/servedelay(500)/trace", "66922f34acd644ea11f5df6ea7da6349d1a135e22131d9681dba2c01984f0eb5"),
    ("rrdp_probe_dir/rrdpoffline/result", "bec48bd1b4e23af19b865226339408823b668f1298ab4b8d3abd0c20f36bc52e"),
    ("rrdp_probe_dir/rrdpoffline/trace", "d211b56e2560ae4a6cfdc259f22de0d6e6f6f43ee87f88ed1b6c4951e5f9bd44"),
    ("rrdp_probe_dir/pinned/result", "0025a264179d04724454d28eaaf29f9ec4adfcf454defb142b08b6be011702b8"),
    ("rrdp_probe_dir/pinned/trace", "fb0833536d98b4f6232ead26c104bcf71dd6027cb0e1cc1061f2d146445bbb71"),
    ("rrdp_probe_dir/loss/result", "08dc371d7902ff82e18e9e49d6534d4d7784dd9cef1f96c114f610a28c7abd09"),
    ("rrdp_probe_dir/loss/trace", "e35ea9d76f25d1d3a523293335ec102ae57d91aa2219d704f42ec79d157715b5"),
    ("rrdp_probe_dir/crosstraffic/result", "67e2f3b8a0e13f3e19f8626075226c8b4259aa385d8a46809031c2c735cad50e"),
    ("rrdp_probe_dir/crosstraffic/trace", "9245eb381d618e4552ac1a8a6a814668259934eacbc7c3bbb663277b67e35374"),
    ("rrdp_probe_dir-nodeadline/clean/result", "0025a264179d04724454d28eaaf29f9ec4adfcf454defb142b08b6be011702b8"),
    ("rrdp_probe_dir-nodeadline/clean/trace", "fb0833536d98b4f6232ead26c104bcf71dd6027cb0e1cc1061f2d146445bbb71"),
    ("rrdp_probe_dir-nodeadline/dropreply(1)/result", "c75c126586bebb2c1b7c844aa4d1a078a4d0c401c6c81862ce75a1066cb05c0d"),
    ("rrdp_probe_dir-nodeadline/dropreply(1)/trace", "7d9cf796ca28f06ae5f5e446a135a55bfe7aaf3057a2ab0e63c1597cc21385eb"),
    ("rrdp_probe_dir-nodeadline/corruptrequest(1)/result", "e89a57c6a2d79e5845dd1c557b5a2b09f89e362b59b28c21a448747d0dc94aaf"),
    ("rrdp_probe_dir-nodeadline/corruptrequest(1)/trace", "04810d1ef9929bd0f1a37b9a4ec3a8305d94ab41905598d39f644b4c2a0f40a1"),
    ("rrdp_probe_dir-nodeadline/stall/result", "0f3a61279899d764989c6c568682f08a2cddd13460e9f46d1af65f7fc7bc1545"),
    ("rrdp_probe_dir-nodeadline/stall/trace", "6d613f76c2597092132c2af3e92408974068adf80e0fb393d3dab2c9ccc3679e"),
    ("rrdp_probe_dir-nodeadline/servedelay(500)/result", "af81c68c31bfb69ae1bd19823851c8cc6b72a2b6d79559c38fdb3ce6bf405936"),
    ("rrdp_probe_dir-nodeadline/servedelay(500)/trace", "4235cfe3abb6117ef2e059c12c87b6bd814a03468add172a174b32e36a2b6331"),
    ("rrdp_sync_dir-cold/clean/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/clean/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/droprequest(1)/result", "e1ef58a1fcb261837d563365e8eb023e1f8b0bedc81493913a3099fb5294ffb9"),
    ("rrdp_sync_dir-cold/droprequest(1)/trace", "e6c73339bbc01ad716a3bc0c24480fe73bff4fecaeceb47bb543f2566fef394b"),
    ("rrdp_sync_dir-cold/droprequest(2)/result", "0b0d4c6cc2e0ebb2d92fe0c651fd81137d683e1d87fbaa3c7f8f3f0b75e1efbf"),
    ("rrdp_sync_dir-cold/droprequest(2)/trace", "96ec4044d8696a3c35b4f14cf0f5b61df777e37a7fec9fb310649209af75dfa6"),
    ("rrdp_sync_dir-cold/dropreply(1)/result", "a439322ea616dad84e14fee34449b03eaafada2d17bc3b2a2c8d2a69c00eaa06"),
    ("rrdp_sync_dir-cold/dropreply(1)/trace", "e40ea0b15a8dced2ebb9ad8f5f96ca2d2d35176a29fa8688b808a939e3645f9e"),
    ("rrdp_sync_dir-cold/dropreply(2)/result", "014a7f1bb4a75655ffd244a8098c9b263f454e649142ed8cbc30f71df6083e35"),
    ("rrdp_sync_dir-cold/dropreply(2)/trace", "e6cda73860b41668f2faa233f98dbe85f6f6884932b43d9520980b656c703582"),
    ("rrdp_sync_dir-cold/dropreply(3)/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/dropreply(3)/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/tearreply(1)/result", "f72e3a503917819fa85d19cf033e76e10194802addd0777e4d0b520fc43e2226"),
    ("rrdp_sync_dir-cold/tearreply(1)/trace", "a05f914bbf4d57ec1015fb388f6ec6a8d6f41a6c751b2d4385d905f65fdf6f18"),
    ("rrdp_sync_dir-cold/tearreply(2)/result", "3f6a60bceca1f3e6e020b96a008ec2359009e5d961a5e21ecfdd2a9d7c13d291"),
    ("rrdp_sync_dir-cold/tearreply(2)/trace", "b7c9d06c8d803f14b7b2499da0ebe80bda83ecf81068c3dad71f1e8b81bb6589"),
    ("rrdp_sync_dir-cold/tearreply(3)/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/tearreply(3)/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/corruptreplytail(1)/result", "c56bd16cbc3c276a6d1e8532f8074c6a80eef655b9a79800de706fa1226e866d"),
    ("rrdp_sync_dir-cold/corruptreplytail(1)/trace", "e726322aed24b0c823e220c8f3234b0267123a442ac0a6c6052775eeba361559"),
    ("rrdp_sync_dir-cold/corruptreplytail(2)/result", "373f867a62d135d28e081f3041dbc6dadc1e74285398f6207f815b9b6edd8649"),
    ("rrdp_sync_dir-cold/corruptreplytail(2)/trace", "8c4fd9b5d5b33752e34769e8fbaa9bc43f875fdfb4f79d8de14da8f9c74fb057"),
    ("rrdp_sync_dir-cold/corruptreplytail(3)/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/corruptreplytail(3)/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/corruptreplyserial(1)/result", "373f867a62d135d28e081f3041dbc6dadc1e74285398f6207f815b9b6edd8649"),
    ("rrdp_sync_dir-cold/corruptreplyserial(1)/trace", "2f69917e6c7c3e33f6e24f5c85093442874cf796d91ef9ff5f057cfadcddf8a8"),
    ("rrdp_sync_dir-cold/corruptreplyserial(2)/result", "373f867a62d135d28e081f3041dbc6dadc1e74285398f6207f815b9b6edd8649"),
    ("rrdp_sync_dir-cold/corruptreplyserial(2)/trace", "8c4fd9b5d5b33752e34769e8fbaa9bc43f875fdfb4f79d8de14da8f9c74fb057"),
    ("rrdp_sync_dir-cold/corruptreplyserial(3)/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/corruptreplyserial(3)/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/corruptrequest(1)/result", "8c66d5f21e036263f5d49d6e5ba3ed8cd0cab60bcf2e920ecba9d4266b1cac0e"),
    ("rrdp_sync_dir-cold/corruptrequest(1)/trace", "09ba68cbb52773152c53e24114986d4b17aa650701074ce23f8fc17e8a91d326"),
    ("rrdp_sync_dir-cold/corruptrequest(2)/result", "794f2d265554c115f4a8dec0b345fe09e201c9014c77fa421b4262497b8df123"),
    ("rrdp_sync_dir-cold/corruptrequest(2)/trace", "c365973db078d0a7634d68124a310b33fd4fae62f7887a41b3d8940d4487756a"),
    ("rrdp_sync_dir-cold/stall/result", "bf04ee1b76dfef44c7b4d27b60a71667401273319b80d1cba3e7e5675480ef86"),
    ("rrdp_sync_dir-cold/stall/trace", "232d1ff8a5dd573077da6c12cf6ccfcbc1ddb48c93190f7a14049f11b3252299"),
    ("rrdp_sync_dir-cold/partition/result", "e1ef58a1fcb261837d563365e8eb023e1f8b0bedc81493913a3099fb5294ffb9"),
    ("rrdp_sync_dir-cold/partition/trace", "5fcb4cc52d7ec94af7bab17a1090f7b9d03d9c19bb03c7fd87d5eaf06661cbf5"),
    ("rrdp_sync_dir-cold/servedelay(100)/result", "5063f3023ec068bb5ed59bae1818d7f54e114dda0b3d9d096a61694316c3b744"),
    ("rrdp_sync_dir-cold/servedelay(100)/trace", "83efd5dae14cb7b854e0dfae71a49e36a41582380b42306a87620a7df186e708"),
    ("rrdp_sync_dir-cold/servedelay(500)/result", "bf04ee1b76dfef44c7b4d27b60a71667401273319b80d1cba3e7e5675480ef86"),
    ("rrdp_sync_dir-cold/servedelay(500)/trace", "76733dd0314f1b0059fd30c4517695fbe95d8e4e3bb508ff9ebc3205ecb254b1"),
    ("rrdp_sync_dir-cold/rrdpoffline/result", "a339eb7ad890e1efd77d104c3b0e11d692052ceeabdb47c313a691033cf96b21"),
    ("rrdp_sync_dir-cold/rrdpoffline/trace", "1d3bdd8f69738b26bf5dafe1ff7936d044ebc7fbc6bf62b8c1e19f6110a418c9"),
    ("rrdp_sync_dir-cold/withholddeltas/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/withholddeltas/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/pinned/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold/pinned/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold/loss/result", "60bda2f0c9122c22600d4696b259edc7a00623f7807dbc77e1b57a0c32f83e80"),
    ("rrdp_sync_dir-cold/loss/trace", "d93e7c1bedf5880beea4b77876172062bbcd72533e9c3d888125310173d65907"),
    ("rrdp_sync_dir-cold/crosstraffic/result", "474524d0bc4576c1ab0110b9f333906ca86b28ffd04b5c8cd53efff6ec4bccb4"),
    ("rrdp_sync_dir-cold/crosstraffic/trace", "27b9ba79f15ea4850099ca2c0d9baa58f152aac7905b6448b2532ac6c09cfa03"),
    ("rrdp_sync_dir-cold-nodeadline/clean/result", "2cb92ca0b5df0832fa4d74e9a8a7754349c90bda0131ba13ce3a5d2ecf4aaa33"),
    ("rrdp_sync_dir-cold-nodeadline/clean/trace", "a0b1a643534e3481a2749bbcc50972f3940f3abd969a00ff4806627441e59448"),
    ("rrdp_sync_dir-cold-nodeadline/dropreply(1)/result", "a439322ea616dad84e14fee34449b03eaafada2d17bc3b2a2c8d2a69c00eaa06"),
    ("rrdp_sync_dir-cold-nodeadline/dropreply(1)/trace", "e40ea0b15a8dced2ebb9ad8f5f96ca2d2d35176a29fa8688b808a939e3645f9e"),
    ("rrdp_sync_dir-cold-nodeadline/corruptrequest(1)/result", "8c66d5f21e036263f5d49d6e5ba3ed8cd0cab60bcf2e920ecba9d4266b1cac0e"),
    ("rrdp_sync_dir-cold-nodeadline/corruptrequest(1)/trace", "09ba68cbb52773152c53e24114986d4b17aa650701074ce23f8fc17e8a91d326"),
    ("rrdp_sync_dir-cold-nodeadline/stall/result", "3c5199f4f4a33cec8e6601dab0aeaadef05d8c7a4b5dc5d70784b9ec19802713"),
    ("rrdp_sync_dir-cold-nodeadline/stall/trace", "b7294bfa354b8ac855fafbef203d1ffb3f21296bb1296f410f44280aac2e6751"),
    ("rrdp_sync_dir-cold-nodeadline/servedelay(500)/result", "cf2c85fbcb58a152fdc12b42b17c06f2fcfbc0fc56a2278f8f70c4989100cb40"),
    ("rrdp_sync_dir-cold-nodeadline/servedelay(500)/trace", "e464eea5bd1abe0e170523fc6aec707814bcd4ef934c30e6e0f06e110c960faf"),
    ("rrdp_sync_dir-unchanged/clean/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/clean/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/droprequest(1)/result", "bb66643e648878b929c6e466f5d48afc7c1a725be4d214e3e00ea672f048b1b2"),
    ("rrdp_sync_dir-unchanged/droprequest(1)/trace", "23833db850617617019e27adbd688f42196e42de416a62294b674f078ac3f7a8"),
    ("rrdp_sync_dir-unchanged/droprequest(2)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/droprequest(2)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/dropreply(1)/result", "c62214b3bab80b58bff866ee3a8615ee201f52b809324828e38516484e92b664"),
    ("rrdp_sync_dir-unchanged/dropreply(1)/trace", "49d882156da80d51c501243c4a33fbdf5ec5d42e5710b5664406ec0491086356"),
    ("rrdp_sync_dir-unchanged/dropreply(2)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/dropreply(2)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/dropreply(3)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/dropreply(3)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/tearreply(1)/result", "b2b40a50386d220040b9f0931cb65ad186cfa644081fce1357a2276ff17e389e"),
    ("rrdp_sync_dir-unchanged/tearreply(1)/trace", "b27d3fea66a79941dbf3e5ad3086024847287aa7dc151017b400e4b7cf242cad"),
    ("rrdp_sync_dir-unchanged/tearreply(2)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/tearreply(2)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/tearreply(3)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/tearreply(3)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/corruptreplytail(1)/result", "e97be35552864c32aaf77bb59f33c4c767141148789852289e5ec26c2949fc47"),
    ("rrdp_sync_dir-unchanged/corruptreplytail(1)/trace", "e9b3ec3b6d04dfa9291b82d8a89b5c045f5e866d08689cd4aa901969dc1922e7"),
    ("rrdp_sync_dir-unchanged/corruptreplytail(2)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/corruptreplytail(2)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/corruptreplytail(3)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/corruptreplytail(3)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/corruptreplyserial(1)/result", "4b0d232a8716bfcfed7dd8135b9bb1a1ab9dbdd61d3d4ce134800940ed746d88"),
    ("rrdp_sync_dir-unchanged/corruptreplyserial(1)/trace", "19c5d50cae5604ef9e407050b8b5b4e3fbe3ed88df44e97fb8956b0c0c624e4f"),
    ("rrdp_sync_dir-unchanged/corruptreplyserial(2)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/corruptreplyserial(2)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/corruptreplyserial(3)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/corruptreplyserial(3)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/corruptrequest(1)/result", "01e7079d932398fc94a62f1beee72ff72ef55b804076da8b035ab20221e9a711"),
    ("rrdp_sync_dir-unchanged/corruptrequest(1)/trace", "84284b0b52d5d4197e2c8a8611c6fac99c5a0a8a6d7087063a4b57502010c6f7"),
    ("rrdp_sync_dir-unchanged/corruptrequest(2)/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/corruptrequest(2)/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/stall/result", "e4ae701243500f51f4e58c2ede25eb36d70f8d14961c4984693876cd75d627ab"),
    ("rrdp_sync_dir-unchanged/stall/trace", "1b68efff2003b77f602a5c9cc9792e9f4bcf7494b8b3ca11a2c1dd97e584c0d1"),
    ("rrdp_sync_dir-unchanged/partition/result", "bb66643e648878b929c6e466f5d48afc7c1a725be4d214e3e00ea672f048b1b2"),
    ("rrdp_sync_dir-unchanged/partition/trace", "04bb1ecf6ec5f52806c433d262185684466b9c8689efab7705443a642827a6ba"),
    ("rrdp_sync_dir-unchanged/servedelay(100)/result", "d6d53a2cdd90468785d6e97d4d976090c9b00e6bd20c8bd5e406401ac81665d0"),
    ("rrdp_sync_dir-unchanged/servedelay(100)/trace", "7eed09829f39540c72f204401a815b757d27529b9d55bed5440b2d862fdee5de"),
    ("rrdp_sync_dir-unchanged/servedelay(500)/result", "e4ae701243500f51f4e58c2ede25eb36d70f8d14961c4984693876cd75d627ab"),
    ("rrdp_sync_dir-unchanged/servedelay(500)/trace", "cab2a476779011942f4d450c3523df91388f912f9c05d81b80edfc1b69146155"),
    ("rrdp_sync_dir-unchanged/rrdpoffline/result", "783d7efd76da0b22e36f2b1e4029a4ab5fc7f351979b2e423e035ae791f53ffa"),
    ("rrdp_sync_dir-unchanged/rrdpoffline/trace", "7346970af4784229d71afecaa19bb001a98f140e1dfb5d75af3dfe94f589f978"),
    ("rrdp_sync_dir-unchanged/withholddeltas/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/withholddeltas/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/pinned/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged/pinned/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged/loss/result", "06bb43e75bf97fa23cb6ee267b2f849ee1e05cd2d6da4b99bbd0a98fdea25d02"),
    ("rrdp_sync_dir-unchanged/loss/trace", "1351b369c2c3e3157cd98704b9b28d807679e22bb767ca012804e5e747f97ed7"),
    ("rrdp_sync_dir-unchanged/crosstraffic/result", "2cc65afd16ac48151afe76dd577da578f9207b66f2d7c1c305f63070c049846e"),
    ("rrdp_sync_dir-unchanged/crosstraffic/trace", "2c641a12fb2e87397cbab4a3e1cd1a8797db9892cd9d0b9ee277adb95df5c5da"),
    ("rrdp_sync_dir-unchanged-nodeadline/clean/result", "9e33b304d9e25b4a96af8d8dac0b63e8933a3de8613eb8938efff934aee8108c"),
    ("rrdp_sync_dir-unchanged-nodeadline/clean/trace", "74490ef1cc01d08d2a23a5e78fe1eddb3e5af8c58e819dd29ce340b17a085664"),
    ("rrdp_sync_dir-unchanged-nodeadline/dropreply(1)/result", "c62214b3bab80b58bff866ee3a8615ee201f52b809324828e38516484e92b664"),
    ("rrdp_sync_dir-unchanged-nodeadline/dropreply(1)/trace", "49d882156da80d51c501243c4a33fbdf5ec5d42e5710b5664406ec0491086356"),
    ("rrdp_sync_dir-unchanged-nodeadline/corruptrequest(1)/result", "01e7079d932398fc94a62f1beee72ff72ef55b804076da8b035ab20221e9a711"),
    ("rrdp_sync_dir-unchanged-nodeadline/corruptrequest(1)/trace", "84284b0b52d5d4197e2c8a8611c6fac99c5a0a8a6d7087063a4b57502010c6f7"),
    ("rrdp_sync_dir-unchanged-nodeadline/stall/result", "baa0ba7467618f87e113f7904f8e6c66b58ee2abeaed3c53fe6152da9a1dc3fe"),
    ("rrdp_sync_dir-unchanged-nodeadline/stall/trace", "80a6310bdd0dddd162322c04272506f1adf1004c3604fbf856029c498df17645"),
    ("rrdp_sync_dir-unchanged-nodeadline/servedelay(500)/result", "869f570f5e6dd413c308bab60a72e62af291416e6b440d6d37032f6474cd4406"),
    ("rrdp_sync_dir-unchanged-nodeadline/servedelay(500)/trace", "110df8b300476e26d8fd44a67ca16722e77cd61f138ea79fab6ea9916648dfe4"),
    ("rrdp_sync_dir-catchup/clean/result", "d49e6e7d88e96f865a34b7913be9d26a114652b79eb9bc641f533e3819e1df2c"),
    ("rrdp_sync_dir-catchup/clean/trace", "ba3e98ec4d97d18718aeb2c691a364d79782725286a02f3d4f01c9e6bc430455"),
    ("rrdp_sync_dir-catchup/droprequest(1)/result", "bb66643e648878b929c6e466f5d48afc7c1a725be4d214e3e00ea672f048b1b2"),
    ("rrdp_sync_dir-catchup/droprequest(1)/trace", "23833db850617617019e27adbd688f42196e42de416a62294b674f078ac3f7a8"),
    ("rrdp_sync_dir-catchup/droprequest(2)/result", "a5c194b9f2e6fb555db0b51885f2905bbbf1092786a0995e4204a37825a501b3"),
    ("rrdp_sync_dir-catchup/droprequest(2)/trace", "8203182f750378b3353deea0de3e7ed0dce87fda28049b6856e27b72a0d12fbb"),
    ("rrdp_sync_dir-catchup/dropreply(1)/result", "c3c8aca359441403e7896d08d3a160c71222dfc8c882976eddcbc4ac47f55b67"),
    ("rrdp_sync_dir-catchup/dropreply(1)/trace", "6c5c02bd8e283ca6a8dcefbec427d360def3a4ffdb2eac6cf66fa1e2b025b11a"),
    ("rrdp_sync_dir-catchup/dropreply(2)/result", "a35366268f6eafe126a99924b216786573275c6460e21bd7e718da844e84dd5b"),
    ("rrdp_sync_dir-catchup/dropreply(2)/trace", "5f955f99b70d5749ec615841692e26e65128444c44c75c884c2c0e2bdd5bb029"),
    ("rrdp_sync_dir-catchup/dropreply(3)/result", "a35366268f6eafe126a99924b216786573275c6460e21bd7e718da844e84dd5b"),
    ("rrdp_sync_dir-catchup/dropreply(3)/trace", "96b049349339fa514be5fc546d43480f088f76449e727b7d19f632e6366beb63"),
    ("rrdp_sync_dir-catchup/tearreply(1)/result", "d797e866309fc891c2c3b5ef92545a9509a6054246cd75c19c0069c1f0448329"),
    ("rrdp_sync_dir-catchup/tearreply(1)/trace", "f2caa4b389c161a32594d723d99408a02c276f2ed02a8740facfd5b67fd24985"),
    ("rrdp_sync_dir-catchup/tearreply(2)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/tearreply(2)/trace", "ff8d2f4fa792495a24c5652106fbc19773116380a11b8f8829614dbbb0a48d20"),
    ("rrdp_sync_dir-catchup/tearreply(3)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/tearreply(3)/trace", "1890cc9cec29cffa5a47983a4bde35b6b5589342042833515ad76a7ff935339b"),
    ("rrdp_sync_dir-catchup/corruptreplytail(1)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/corruptreplytail(1)/trace", "f755ebac91d3258bb33efcca464f595455423ea86187496c271066daa32de7f6"),
    ("rrdp_sync_dir-catchup/corruptreplytail(2)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/corruptreplytail(2)/trace", "ff8d2f4fa792495a24c5652106fbc19773116380a11b8f8829614dbbb0a48d20"),
    ("rrdp_sync_dir-catchup/corruptreplytail(3)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/corruptreplytail(3)/trace", "1890cc9cec29cffa5a47983a4bde35b6b5589342042833515ad76a7ff935339b"),
    ("rrdp_sync_dir-catchup/corruptreplyserial(1)/result", "741f9d4e98aff0ba80a0f8acdaa3384cff1fb59f6006f10dee47005d65fe28c3"),
    ("rrdp_sync_dir-catchup/corruptreplyserial(1)/trace", "a3a171345072a358e8a3ff5037369644efeeff52ea581a4a534dce8d16351278"),
    ("rrdp_sync_dir-catchup/corruptreplyserial(2)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/corruptreplyserial(2)/trace", "ff8d2f4fa792495a24c5652106fbc19773116380a11b8f8829614dbbb0a48d20"),
    ("rrdp_sync_dir-catchup/corruptreplyserial(3)/result", "c2f5f314f3aa1095f26b0ba1be0510b528abea22b89253c3212e906b95605df8"),
    ("rrdp_sync_dir-catchup/corruptreplyserial(3)/trace", "1890cc9cec29cffa5a47983a4bde35b6b5589342042833515ad76a7ff935339b"),
    ("rrdp_sync_dir-catchup/corruptrequest(1)/result", "01e7079d932398fc94a62f1beee72ff72ef55b804076da8b035ab20221e9a711"),
    ("rrdp_sync_dir-catchup/corruptrequest(1)/trace", "84284b0b52d5d4197e2c8a8611c6fac99c5a0a8a6d7087063a4b57502010c6f7"),
    ("rrdp_sync_dir-catchup/corruptrequest(2)/result", "9ffdc438bb740e1f433fe12183bbc0c85baa6a5608cf0699018d0562eae73ea0"),
    ("rrdp_sync_dir-catchup/corruptrequest(2)/trace", "02dd5ccb3f1f3b4efc419d99be9829ce1baa3609145fe272ae20986c6d91653f"),
    ("rrdp_sync_dir-catchup/stall/result", "730d44808f88be2097da43613e9053f340cccf6f63da8bf691645cfc515a9669"),
    ("rrdp_sync_dir-catchup/stall/trace", "4859c2ce54fd0d4e877a8775fc9575785c3a56494e1f5ab38cdeb338b56800c5"),
    ("rrdp_sync_dir-catchup/partition/result", "bb66643e648878b929c6e466f5d48afc7c1a725be4d214e3e00ea672f048b1b2"),
    ("rrdp_sync_dir-catchup/partition/trace", "04bb1ecf6ec5f52806c433d262185684466b9c8689efab7705443a642827a6ba"),
    ("rrdp_sync_dir-catchup/servedelay(100)/result", "f54fec324c55218c2fb939c02d9a89555f5269a729f3bbfa5d938844c50c21c2"),
    ("rrdp_sync_dir-catchup/servedelay(100)/trace", "65a5abf835cd04dd912b09d14fe15ed18470ed976a6ee8f0989403a8972fa075"),
    ("rrdp_sync_dir-catchup/servedelay(500)/result", "730d44808f88be2097da43613e9053f340cccf6f63da8bf691645cfc515a9669"),
    ("rrdp_sync_dir-catchup/servedelay(500)/trace", "449fbe85afc6c293d078d02499d2686dd7154db788f33b956a1991392cffbd69"),
    ("rrdp_sync_dir-catchup/rrdpoffline/result", "783d7efd76da0b22e36f2b1e4029a4ab5fc7f351979b2e423e035ae791f53ffa"),
    ("rrdp_sync_dir-catchup/rrdpoffline/trace", "7346970af4784229d71afecaa19bb001a98f140e1dfb5d75af3dfe94f589f978"),
    ("rrdp_sync_dir-catchup/withholddeltas/result", "0df831a9857b5462357b85639d9ce04b1913da4ae9fa9a92044c3f321c3dbcaa"),
    ("rrdp_sync_dir-catchup/withholddeltas/trace", "a01e0faec5390b32442ac12aec98e22a0daf25cb5c22222516261ab3045a2f40"),
    ("rrdp_sync_dir-catchup/pinned/result", "d49e6e7d88e96f865a34b7913be9d26a114652b79eb9bc641f533e3819e1df2c"),
    ("rrdp_sync_dir-catchup/pinned/trace", "ba3e98ec4d97d18718aeb2c691a364d79782725286a02f3d4f01c9e6bc430455"),
    ("rrdp_sync_dir-catchup/loss/result", "f4fe44af322b70092c035e789e597f071bc5bfb6302a06b69a20c723f317dfb5"),
    ("rrdp_sync_dir-catchup/loss/trace", "4e8848876649988d4d16768b914d2c4dc04b1885d55136eca1d9f8e6be698a4e"),
    ("rrdp_sync_dir-catchup/crosstraffic/result", "846fc91ccd6f7a6b18ef5708ad5e0e371bb44c2e0312ce6d2fccc4573ab71f12"),
    ("rrdp_sync_dir-catchup/crosstraffic/trace", "4c18ebdf43023ad6611338ce54dbe0d623cb2e94f24a9c4553b3e7b40ca4351c"),
    ("rrdp_sync_dir-catchup-nodeadline/clean/result", "d49e6e7d88e96f865a34b7913be9d26a114652b79eb9bc641f533e3819e1df2c"),
    ("rrdp_sync_dir-catchup-nodeadline/clean/trace", "ba3e98ec4d97d18718aeb2c691a364d79782725286a02f3d4f01c9e6bc430455"),
    ("rrdp_sync_dir-catchup-nodeadline/dropreply(1)/result", "c3c8aca359441403e7896d08d3a160c71222dfc8c882976eddcbc4ac47f55b67"),
    ("rrdp_sync_dir-catchup-nodeadline/dropreply(1)/trace", "6c5c02bd8e283ca6a8dcefbec427d360def3a4ffdb2eac6cf66fa1e2b025b11a"),
    ("rrdp_sync_dir-catchup-nodeadline/corruptrequest(1)/result", "01e7079d932398fc94a62f1beee72ff72ef55b804076da8b035ab20221e9a711"),
    ("rrdp_sync_dir-catchup-nodeadline/corruptrequest(1)/trace", "84284b0b52d5d4197e2c8a8611c6fac99c5a0a8a6d7087063a4b57502010c6f7"),
    ("rrdp_sync_dir-catchup-nodeadline/stall/result", "75731dfa6c96217f30525dffb4c69b3a8db8303694615e1902cbbca49eff69f2"),
    ("rrdp_sync_dir-catchup-nodeadline/stall/trace", "b11f0c57e1286de2e933dc4dcb1f7f432ecd214a2ef6415aa166050f26b48b64"),
    ("rrdp_sync_dir-catchup-nodeadline/servedelay(500)/result", "60193c09a47e43da5a8bcbead56c3740204b77652c74b1d6af065caebfaa5c16"),
    ("rrdp_sync_dir-catchup-nodeadline/servedelay(500)/trace", "354c94b5492c6898d3bc6e444cecb561eeb69a0c5b9aa9e9b1edb3238c664b2c"),
    ("rrdp_sync_dir-bridge/clean/result", "32fa0ffab60864fb46798b4f92f990079dc9880b5f9f7bfe9b235d7cfe1bbdfa"),
    ("rrdp_sync_dir-bridge/clean/trace", "03b0a97f343d4c4b56fd7322f4b7b102b6fc98c2a41f0e68507f45907f5df508"),
    ("rrdp_sync_dir-bridge/droprequest(1)/result", "e1ef58a1fcb261837d563365e8eb023e1f8b0bedc81493913a3099fb5294ffb9"),
    ("rrdp_sync_dir-bridge/droprequest(1)/trace", "e6c73339bbc01ad716a3bc0c24480fe73bff4fecaeceb47bb543f2566fef394b"),
    ("rrdp_sync_dir-bridge/droprequest(2)/result", "fab0b1975f9b435a45c8f4ebc3659c4d9c21d4a09fc3679fea8231de4fea64a9"),
    ("rrdp_sync_dir-bridge/droprequest(2)/trace", "67a1f639e0c05d00284a4f1ca4e9e7e4dfca2e20751749ab76e3c90a65e63d0f"),
    ("rrdp_sync_dir-bridge/dropreply(1)/result", "8375ab75f9a4c278077c1c39354d73cc9c11c2c205e96510ecffda01e01ca92c"),
    ("rrdp_sync_dir-bridge/dropreply(1)/trace", "737296be3c25894a47c1b14a9ceb2bd99cfd4b851037f265a6504738736a497a"),
    ("rrdp_sync_dir-bridge/dropreply(2)/result", "1aded8572d69a88aff17ca2b4bb68915d83bdfe148387bcea8d934ac51429c16"),
    ("rrdp_sync_dir-bridge/dropreply(2)/trace", "622bc99386d82cf6e5fee6a6133c57f1de97571239b4918f4d8d5d685c637047"),
    ("rrdp_sync_dir-bridge/dropreply(3)/result", "536188f66f3d30bce7c451c842b1c7a54189918b7161f8e1f225fde3a1754684"),
    ("rrdp_sync_dir-bridge/dropreply(3)/trace", "e64c78cda05d9ffdc543fb80a888600090615d07c5b2739b3a5a5b8795b17c78"),
    ("rrdp_sync_dir-bridge/tearreply(1)/result", "813bb7ea468b49e084a602b6f22602b18e9c5b7b131d66c19674272604ca4cab"),
    ("rrdp_sync_dir-bridge/tearreply(1)/trace", "64b4b0924777501338789930b61f4fa66337b01ad559971e0666d3b38353c9a5"),
    ("rrdp_sync_dir-bridge/tearreply(2)/result", "577905d168785d7bc5e65a0d208e25ba12c04c7f9959616cfe98934bfdf2124a"),
    ("rrdp_sync_dir-bridge/tearreply(2)/trace", "94957dd2c22b4799954a45b3f51434892c307a7e33e2661d9451dd0bee3d2dbb"),
    ("rrdp_sync_dir-bridge/tearreply(3)/result", "feeac73c4d524db1fe1449ac514c56da2eee5add3161c6a50d797570be05c613"),
    ("rrdp_sync_dir-bridge/tearreply(3)/trace", "447801375405aef2b4f1cb91473c27dac1bb520e7a9c6103aa9b8f42517ffc9f"),
    ("rrdp_sync_dir-bridge/corruptreplytail(1)/result", "feeac73c4d524db1fe1449ac514c56da2eee5add3161c6a50d797570be05c613"),
    ("rrdp_sync_dir-bridge/corruptreplytail(1)/trace", "3f1619303a0482ad7a7e5a711279203cf441532699e1b40ebbafc90d4be12ccd"),
    ("rrdp_sync_dir-bridge/corruptreplytail(2)/result", "5bda114a2ab0499f03858495f235fd595ee8f7470181803c9f912da64e1dd614"),
    ("rrdp_sync_dir-bridge/corruptreplytail(2)/trace", "1392f6024b338d19aa472dc7f525e51a7b0b0e5906685b83f250b6f963ea07b4"),
    ("rrdp_sync_dir-bridge/corruptreplytail(3)/result", "feeac73c4d524db1fe1449ac514c56da2eee5add3161c6a50d797570be05c613"),
    ("rrdp_sync_dir-bridge/corruptreplytail(3)/trace", "447801375405aef2b4f1cb91473c27dac1bb520e7a9c6103aa9b8f42517ffc9f"),
    ("rrdp_sync_dir-bridge/corruptreplyserial(1)/result", "5bda114a2ab0499f03858495f235fd595ee8f7470181803c9f912da64e1dd614"),
    ("rrdp_sync_dir-bridge/corruptreplyserial(1)/trace", "163dde38a935b7ea07a1777eb4438ac41c0b4f467324a6558085263bce828bbe"),
    ("rrdp_sync_dir-bridge/corruptreplyserial(2)/result", "5bda114a2ab0499f03858495f235fd595ee8f7470181803c9f912da64e1dd614"),
    ("rrdp_sync_dir-bridge/corruptreplyserial(2)/trace", "1392f6024b338d19aa472dc7f525e51a7b0b0e5906685b83f250b6f963ea07b4"),
    ("rrdp_sync_dir-bridge/corruptreplyserial(3)/result", "feeac73c4d524db1fe1449ac514c56da2eee5add3161c6a50d797570be05c613"),
    ("rrdp_sync_dir-bridge/corruptreplyserial(3)/trace", "447801375405aef2b4f1cb91473c27dac1bb520e7a9c6103aa9b8f42517ffc9f"),
    ("rrdp_sync_dir-bridge/corruptrequest(1)/result", "8c66d5f21e036263f5d49d6e5ba3ed8cd0cab60bcf2e920ecba9d4266b1cac0e"),
    ("rrdp_sync_dir-bridge/corruptrequest(1)/trace", "09ba68cbb52773152c53e24114986d4b17aa650701074ce23f8fc17e8a91d326"),
    ("rrdp_sync_dir-bridge/corruptrequest(2)/result", "bcbeda140a962ef6c9c41cc764f1a1d2084c33164070c16b869affd901640913"),
    ("rrdp_sync_dir-bridge/corruptrequest(2)/trace", "ade4761e4cd0129d91ec229cd9ee3484428ecf84f4ec1e4ee15a7db5778c8640"),
    ("rrdp_sync_dir-bridge/stall/result", "8a04edf8859d9b9c4741ad1f5b5b57fde11bdd3ce4e670862d1e022e3fcc3798"),
    ("rrdp_sync_dir-bridge/stall/trace", "5917e0198afde593a77ab5a84df885ee234160dae8bfb8eb85d876a4c2185a8b"),
    ("rrdp_sync_dir-bridge/partition/result", "e1ef58a1fcb261837d563365e8eb023e1f8b0bedc81493913a3099fb5294ffb9"),
    ("rrdp_sync_dir-bridge/partition/trace", "5fcb4cc52d7ec94af7bab17a1090f7b9d03d9c19bb03c7fd87d5eaf06661cbf5"),
    ("rrdp_sync_dir-bridge/servedelay(100)/result", "7ce804055013585b9f93d47c1d288aa6b9256ef1c668cb6f635cc0ee4641e8cb"),
    ("rrdp_sync_dir-bridge/servedelay(100)/trace", "3a432aeaef63ec1982065b5ee1e7cf7acf4fe751f70bd2cf135730b05bfe4958"),
    ("rrdp_sync_dir-bridge/servedelay(500)/result", "8a04edf8859d9b9c4741ad1f5b5b57fde11bdd3ce4e670862d1e022e3fcc3798"),
    ("rrdp_sync_dir-bridge/servedelay(500)/trace", "b4e7ba735a93cdad1e20cd416c8419df490729d97717e0e502f7aefeb28c22d4"),
    ("rrdp_sync_dir-bridge/rrdpoffline/result", "a339eb7ad890e1efd77d104c3b0e11d692052ceeabdb47c313a691033cf96b21"),
    ("rrdp_sync_dir-bridge/rrdpoffline/trace", "1d3bdd8f69738b26bf5dafe1ff7936d044ebc7fbc6bf62b8c1e19f6110a418c9"),
    ("rrdp_sync_dir-bridge/withholddeltas/result", "aa48fe1ff5d18a884d3e0cb36df978cf902cb347dce6475d17ecc09031bffd20"),
    ("rrdp_sync_dir-bridge/withholddeltas/trace", "108774016496a1246c5a6502907791a7449f183dfeae8763a2f07ede8dccf4f1"),
    ("rrdp_sync_dir-bridge/pinned/result", "32fa0ffab60864fb46798b4f92f990079dc9880b5f9f7bfe9b235d7cfe1bbdfa"),
    ("rrdp_sync_dir-bridge/pinned/trace", "03b0a97f343d4c4b56fd7322f4b7b102b6fc98c2a41f0e68507f45907f5df508"),
    ("rrdp_sync_dir-bridge/loss/result", "4e6f75e6e855b41f7cfd51b8ae472f1d346a853bcc399a000bc78cf48718741f"),
    ("rrdp_sync_dir-bridge/loss/trace", "6cfdba4f64376411733c99ea5ebd9c3f75fc9ca15d3c029219d9b47eb26091ba"),
    ("rrdp_sync_dir-bridge/crosstraffic/result", "fee9367cb0e8f970569e3d007de51a4e16bb70db36aca40aaa3dd58ef9291982"),
    ("rrdp_sync_dir-bridge/crosstraffic/trace", "795ccb0a194f58415456c7de5888e8d50564f8c239975cf773d5351996d7392c"),
    ("rrdp_sync_dir-bridge-nodeadline/clean/result", "32fa0ffab60864fb46798b4f92f990079dc9880b5f9f7bfe9b235d7cfe1bbdfa"),
    ("rrdp_sync_dir-bridge-nodeadline/clean/trace", "03b0a97f343d4c4b56fd7322f4b7b102b6fc98c2a41f0e68507f45907f5df508"),
    ("rrdp_sync_dir-bridge-nodeadline/dropreply(1)/result", "8375ab75f9a4c278077c1c39354d73cc9c11c2c205e96510ecffda01e01ca92c"),
    ("rrdp_sync_dir-bridge-nodeadline/dropreply(1)/trace", "737296be3c25894a47c1b14a9ceb2bd99cfd4b851037f265a6504738736a497a"),
    ("rrdp_sync_dir-bridge-nodeadline/corruptrequest(1)/result", "8c66d5f21e036263f5d49d6e5ba3ed8cd0cab60bcf2e920ecba9d4266b1cac0e"),
    ("rrdp_sync_dir-bridge-nodeadline/corruptrequest(1)/trace", "09ba68cbb52773152c53e24114986d4b17aa650701074ce23f8fc17e8a91d326"),
    ("rrdp_sync_dir-bridge-nodeadline/stall/result", "9f1f3af4e0f1ad4e4fc7a0d39116507a7857e883a6153306bbb902a2f8d540e6"),
    ("rrdp_sync_dir-bridge-nodeadline/stall/trace", "0bd9f2c41807aa3d48510c4b494d7d05f8b9eee683da64cbb8c4bd60a49c82fb"),
    ("rrdp_sync_dir-bridge-nodeadline/servedelay(500)/result", "492f94cb1c63ba298cbbb965948ad2f52d1d33830c763ba3f13973f81e3437a5"),
    ("rrdp_sync_dir-bridge-nodeadline/servedelay(500)/trace", "6e9213efb8d64f4e15ff2b5e65c3e3ae576b2d90be35e237b0fd189aaa4e0be4"),
    ("rrdp_sync_dir-reset/clean/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/clean/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/droprequest(1)/result", "bb66643e648878b929c6e466f5d48afc7c1a725be4d214e3e00ea672f048b1b2"),
    ("rrdp_sync_dir-reset/droprequest(1)/trace", "23833db850617617019e27adbd688f42196e42de416a62294b674f078ac3f7a8"),
    ("rrdp_sync_dir-reset/droprequest(2)/result", "81466fa354e256e3d4a7fccb1b718228c7e9fe656ced4aea661869a447c0a9f8"),
    ("rrdp_sync_dir-reset/droprequest(2)/trace", "8a37dbdf44abaf184f16e10e10d944be2d8d70e265f1345fd2ee637e864f4c21"),
    ("rrdp_sync_dir-reset/dropreply(1)/result", "e65b571559c4d111a5c44d43a93d4c92fa7ff13120c18c0bf5fd996c9c402b01"),
    ("rrdp_sync_dir-reset/dropreply(1)/trace", "fe1741b650fabc2e4aee4015d915105044ed229bc87b69c4e72c9e86a6c8cc2f"),
    ("rrdp_sync_dir-reset/dropreply(2)/result", "a1510094e8f061d3aaca269ac17dacf7f84ed008fe2de8b9519590f912060b67"),
    ("rrdp_sync_dir-reset/dropreply(2)/trace", "e8d593572aeb6f9470cd905979ee37b8d89255fca1ab2614e18dc5adf5adcc01"),
    ("rrdp_sync_dir-reset/dropreply(3)/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/dropreply(3)/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/tearreply(1)/result", "4fa2d6141c5db769dcef8dfd2f5e7fce1a42dace5af1c3f2b6d91ef1aa6a5a49"),
    ("rrdp_sync_dir-reset/tearreply(1)/trace", "d440838a3fd8619a862481ca2006eec86c3f8928f36129fa202e654a4c7a13d8"),
    ("rrdp_sync_dir-reset/tearreply(2)/result", "b3a64979a83c7567e0797c8e1f369d5656a6640b10f17d48ab6fb06b1aba6727"),
    ("rrdp_sync_dir-reset/tearreply(2)/trace", "4cc323d348bf8e1d8f8e109839ab5cf1d0da72f7e81b606f0df3d5569bc230f5"),
    ("rrdp_sync_dir-reset/tearreply(3)/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/tearreply(3)/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/corruptreplytail(1)/result", "4fa2d6141c5db769dcef8dfd2f5e7fce1a42dace5af1c3f2b6d91ef1aa6a5a49"),
    ("rrdp_sync_dir-reset/corruptreplytail(1)/trace", "d440838a3fd8619a862481ca2006eec86c3f8928f36129fa202e654a4c7a13d8"),
    ("rrdp_sync_dir-reset/corruptreplytail(2)/result", "3d2742849103dfffb82ec3c8ad98fc8cbaef416613a182ed546bd8290e96490a"),
    ("rrdp_sync_dir-reset/corruptreplytail(2)/trace", "5ca10c2019ed1993b40fcee8be28503816f870265812a9df5c438e70606a1222"),
    ("rrdp_sync_dir-reset/corruptreplytail(3)/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/corruptreplytail(3)/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/corruptreplyserial(1)/result", "3d2742849103dfffb82ec3c8ad98fc8cbaef416613a182ed546bd8290e96490a"),
    ("rrdp_sync_dir-reset/corruptreplyserial(1)/trace", "599ee85382df0a9462f495dcb7798272c3330e973d62c7a9c19669071c495411"),
    ("rrdp_sync_dir-reset/corruptreplyserial(2)/result", "3d2742849103dfffb82ec3c8ad98fc8cbaef416613a182ed546bd8290e96490a"),
    ("rrdp_sync_dir-reset/corruptreplyserial(2)/trace", "5ca10c2019ed1993b40fcee8be28503816f870265812a9df5c438e70606a1222"),
    ("rrdp_sync_dir-reset/corruptreplyserial(3)/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/corruptreplyserial(3)/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/corruptrequest(1)/result", "01e7079d932398fc94a62f1beee72ff72ef55b804076da8b035ab20221e9a711"),
    ("rrdp_sync_dir-reset/corruptrequest(1)/trace", "84284b0b52d5d4197e2c8a8611c6fac99c5a0a8a6d7087063a4b57502010c6f7"),
    ("rrdp_sync_dir-reset/corruptrequest(2)/result", "adc441a1885b5e32d3792cfa0837d5d5f50227aa4096fa899a5e33c6083004d8"),
    ("rrdp_sync_dir-reset/corruptrequest(2)/trace", "ab9ef4088da02c6e634c19bea263b93f1214f947c8b948ea25815f66e18cfbbc"),
    ("rrdp_sync_dir-reset/stall/result", "d49ef3df761e4b7f26809ab2599df63d17eb19b3db00edaf6356093ef4f7d5f9"),
    ("rrdp_sync_dir-reset/stall/trace", "f494c7c518ed56a7657e1985b346cb9311f188bc769f091b372440b59cf1a048"),
    ("rrdp_sync_dir-reset/partition/result", "bb66643e648878b929c6e466f5d48afc7c1a725be4d214e3e00ea672f048b1b2"),
    ("rrdp_sync_dir-reset/partition/trace", "04bb1ecf6ec5f52806c433d262185684466b9c8689efab7705443a642827a6ba"),
    ("rrdp_sync_dir-reset/servedelay(100)/result", "573ccca217715b7e91458c64a224aa6a1a8b482c291c0c4e16ac3e32db0c2752"),
    ("rrdp_sync_dir-reset/servedelay(100)/trace", "7b3d0cc2d47aee786ad9136dd18be19baa554861cd43459336e4a61de79fbfec"),
    ("rrdp_sync_dir-reset/servedelay(500)/result", "d49ef3df761e4b7f26809ab2599df63d17eb19b3db00edaf6356093ef4f7d5f9"),
    ("rrdp_sync_dir-reset/servedelay(500)/trace", "405ac8467b7a2dab880eb778c9e98fd1da44cd2366ee24006fa849ead6ec899d"),
    ("rrdp_sync_dir-reset/rrdpoffline/result", "783d7efd76da0b22e36f2b1e4029a4ab5fc7f351979b2e423e035ae791f53ffa"),
    ("rrdp_sync_dir-reset/rrdpoffline/trace", "7346970af4784229d71afecaa19bb001a98f140e1dfb5d75af3dfe94f589f978"),
    ("rrdp_sync_dir-reset/withholddeltas/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/withholddeltas/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/pinned/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset/pinned/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset/loss/result", "5db217f53dc2e1b4e23e8a32263c215698cee92a92176cad2d81388844c45c67"),
    ("rrdp_sync_dir-reset/loss/trace", "6f8229afbf36464e461a4cba6bebdf46abadc1e3fd7cc19b1af3b338a7e29a68"),
    ("rrdp_sync_dir-reset/crosstraffic/result", "88c7ee8e7e5809052e2301421f64426b42ceb164e6e22cc315624a2c036dd488"),
    ("rrdp_sync_dir-reset/crosstraffic/trace", "f9aa3e7e997ca84d03f0ac7b0c9897f0b9237f94c1fb0fddea07a623f05b035f"),
    ("rrdp_sync_dir-reset-nodeadline/clean/result", "99ae49dfb8543f9314c271f81b3e855dad0bb1aeb5c68f792faffc4493894685"),
    ("rrdp_sync_dir-reset-nodeadline/clean/trace", "6ede9a3973662adca59478b7fc6a7b46086f50472362bdcc0e32eb0cb3fecf7f"),
    ("rrdp_sync_dir-reset-nodeadline/dropreply(1)/result", "e65b571559c4d111a5c44d43a93d4c92fa7ff13120c18c0bf5fd996c9c402b01"),
    ("rrdp_sync_dir-reset-nodeadline/dropreply(1)/trace", "fe1741b650fabc2e4aee4015d915105044ed229bc87b69c4e72c9e86a6c8cc2f"),
    ("rrdp_sync_dir-reset-nodeadline/corruptrequest(1)/result", "01e7079d932398fc94a62f1beee72ff72ef55b804076da8b035ab20221e9a711"),
    ("rrdp_sync_dir-reset-nodeadline/corruptrequest(1)/trace", "84284b0b52d5d4197e2c8a8611c6fac99c5a0a8a6d7087063a4b57502010c6f7"),
    ("rrdp_sync_dir-reset-nodeadline/stall/result", "e455505e98fdb1d43c6c5d2e68311f566936b2ebf2722cca00d866eaae5b712c"),
    ("rrdp_sync_dir-reset-nodeadline/stall/trace", "531b927076795fc3460c1f5dab8966382a0dafc6c7e5b2170285c000834795b5"),
    ("rrdp_sync_dir-reset-nodeadline/servedelay(500)/result", "17211558d3d324adb03a3480c319a4683558e0be396fdb9d15d6cd8eeee9e3c5"),
    ("rrdp_sync_dir-reset-nodeadline/servedelay(500)/trace", "96d363523c3fdb6ab981056900cedcee29d8edd86c965c8c38cc00dee7dfdaa8"),
];
