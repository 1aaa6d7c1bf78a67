//! Criterion benches: the distribution protocols — RRDP polling (the
//! incremental transport relying parties poll with) and RTR delta
//! computation/replay.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ipres::{Addr, Asn, Prefix};
use netsim::Network;
use rpki_objects::RepoUri;
use rpki_repo::{rrdp_sync_dir, RepoRegistry, RrdpClientState, RrdpSyncKind};
use rpki_rp::{ClientAction, RtrClient, RtrServer, Vrp, VrpUpdate};

fn vrps(n: u32) -> Vec<Vrp> {
    (0..n)
        .map(|i| {
            let addr = Addr::v4(i.wrapping_mul(2_654_435_761));
            Vrp::new(Prefix::new(addr, 20), 24, Asn(i % 500))
        })
        .collect()
}

/// One direct-call sync: query, answer, apply, retrying once on reset.
/// (The framed, fault-modeled transport is benched by `bench_rtr`; this
/// measures the pure state machines.)
fn sync(client: &mut RtrClient, server: &RtrServer) -> usize {
    let mut exchanged = 0;
    for _ in 0..2 {
        let query = client.poll();
        exchanged += 1;
        let mut reset = false;
        for pdu in server.handle(&query) {
            exchanged += 1;
            if client.handle(&pdu) == ClientAction::Reset {
                reset = true;
            }
        }
        if !reset {
            break;
        }
    }
    exchanged
}

fn bench_rtr(c: &mut Criterion) {
    let mut group = c.benchmark_group("rtr");
    group.sample_size(20);
    for n in [1_000u32, 20_000] {
        let base = vrps(n);
        group.bench_with_input(BenchmarkId::new("full_sync", n), &n, |b, _| {
            let mut server = RtrServer::new(1, 8);
            server.publish(VrpUpdate::snapshot(base.iter().copied()));
            b.iter(|| {
                let mut client = RtrClient::new();
                black_box(sync(&mut client, &server))
            })
        });
        group.bench_with_input(BenchmarkId::new("delta_update", n), &n, |b, _| {
            b.iter(|| {
                let mut server = RtrServer::new(1, 8);
                server.publish(VrpUpdate::snapshot(base.iter().copied()));
                // Change 1% of the set.
                let mut changed = base.clone();
                for v in changed.iter_mut().take((n / 100) as usize) {
                    v.asn = Asn(v.asn.0 + 10_000);
                }
                black_box(server.publish(VrpUpdate::snapshot(changed)))
            })
        });
    }
    group.finish();
}

fn bench_incremental_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_sync");
    group.sample_size(20);
    for files in [50usize, 500] {
        // A repository with `files` objects of ~1 KiB each.
        let mut net = Network::new(0);
        let client = net.add_node("rp");
        let mut repos = RepoRegistry::new();
        let server = repos.create(&mut net, "h");
        let dir = RepoUri::new("h", &["repo"]);
        for i in 0..files {
            repos.get_mut(server).unwrap().publish_raw(
                &dir,
                &format!("f{i}.roa"),
                vec![i as u8; 1024],
            );
        }
        group.bench_with_input(BenchmarkId::new("warm_noop", files), &files, |b, _| {
            let mut state = RrdpClientState::new();
            rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None).expect("clean wire");
            b.iter(|| {
                let (out, kind) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None)
                    .expect("clean wire");
                assert_eq!(kind, RrdpSyncKind::Unchanged);
                black_box(out.files.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("cold_full", files), &files, |b, _| {
            b.iter(|| {
                let mut state = RrdpClientState::new();
                let (out, _) = rrdp_sync_dir(&mut net, &repos, client, &dir, &mut state, None)
                    .expect("clean wire");
                black_box(out.files.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rtr, bench_incremental_sync);
criterion_main!(benches);
