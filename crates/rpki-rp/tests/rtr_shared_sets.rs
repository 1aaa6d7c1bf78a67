//! Routers that share VRP set versions hold exactly what routers with
//! private sets would. K clients start at one server serial; the server
//! publishes random snapshots over a short delta history, restarts its
//! session now and then, and each sync answers a random subset of the
//! clients with their responses interleaved at random and some PDUs
//! dropped. Clients at one version so receive equal change lists,
//! divergent ones, partial ones and full resyncs after `CacheReset`.
//! After every `EndOfData` each client's set must equal an unshared
//! `BTreeSet` model fed the same PDUs.

use std::collections::{BTreeSet, VecDeque};

use ipres::{Addr, Asn, Prefix};
use proptest::prelude::*;
use rpki_rp::{ClientAction, Delta, RtrClient, RtrPdu, RtrServer, Vrp, VrpUpdate};

const CLIENTS: usize = 4;

/// Twelve VRPs; a snapshot is a bit mask over them.
fn universe() -> Vec<Vrp> {
    (0..12u32)
        .map(|i| {
            Vrp::new(
                Prefix::new(Addr::v4((10 << 24) | (i << 16)), 16),
                16 + (i % 3) as u8,
                Asn(i % 4),
            )
        })
        .collect()
}

/// The router side over a private set, as a client kept it before
/// versions were shared.
#[derive(Default)]
struct Model {
    session: Option<u16>,
    set: BTreeSet<Vrp>,
    pending: Option<Vec<Delta>>,
}

impl Model {
    fn handle(&mut self, pdu: &RtrPdu) {
        match pdu {
            RtrPdu::CacheResponse { session } => {
                if self.session.is_some_and(|s| s != *session) {
                    *self = Model::default();
                    return;
                }
                if self.session.is_none() {
                    self.session = Some(*session);
                    self.set.clear();
                }
                self.pending = Some(Vec::new());
            }
            RtrPdu::Prefix(delta) => {
                if let Some(pending) = self.pending.as_mut() {
                    pending.push(*delta);
                }
            }
            RtrPdu::EndOfData { session, .. } if Some(*session) == self.session => {
                for d in self.pending.take().into_iter().flatten() {
                    if d.announce {
                        self.set.insert(d.vrp);
                    } else {
                        self.set.remove(&d.vrp);
                    }
                }
            }
            RtrPdu::CacheReset => *self = Model::default(),
            _ => {}
        }
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Publish the snapshot with these members of [`universe`].
    Publish(u16),
    /// [`sync`] with the clients in `mask`.
    Sync { mask: u8, picks: Vec<u8>, drops: Vec<bool> },
    /// Start a new server session over the same set.
    ResetSession,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u8..8,
        0u16..1 << 12,
        1u8..1 << CLIENTS,
        proptest::collection::vec(any::<u8>(), 0..48),
        proptest::collection::vec(0u8..20, 0..48),
    )
        .prop_map(|(kind, snapshot, mask, picks, drops)| match kind {
            0..=2 => Step::Publish(snapshot),
            3..=6 => Step::Sync { mask, picks, drops: drops.into_iter().map(|d| d == 0).collect() },
            _ => Step::ResetSession,
        })
}

/// Polls with the clients in `mask` and delivers their responses in
/// the order `picks` draws, dropping a PDU where `drops` says so. A
/// client that asks again gets its next response queued, up to three
/// times. After every `EndOfData` the client must hold its model's set.
fn sync(
    server: &RtrServer,
    clients: &mut [(RtrClient, Model)],
    mask: u8,
    picks: Vec<u8>,
    drops: Vec<bool>,
) -> Result<(), TestCaseError> {
    let mut queues: Vec<VecDeque<RtrPdu>> = vec![VecDeque::new(); CLIENTS];
    let mut budget = [3u8; CLIENTS];
    for (i, queue) in queues.iter_mut().enumerate() {
        if mask >> i & 1 == 1 {
            queue.extend(server.handle(&clients[i].0.poll()));
        }
    }
    let mut picks = picks.into_iter();
    let mut drops = drops.into_iter();
    while queues.iter().any(|q| !q.is_empty()) {
        let waiting: Vec<usize> = (0..CLIENTS).filter(|&i| !queues[i].is_empty()).collect();
        let i = waiting[picks.next().unwrap_or(0) as usize % waiting.len()];
        let pdu = queues[i].pop_front().expect("waiting");
        if drops.next().unwrap_or(false) {
            continue;
        }
        let (client, model) = &mut clients[i];
        let action = client.handle(&pdu);
        model.handle(&pdu);
        if matches!(pdu, RtrPdu::EndOfData { .. }) {
            prop_assert_eq!(client.vrp_set(), &model.set, "client {} after {:?}", i, pdu);
        }
        if action != ClientAction::Idle && budget[i] > 0 {
            budget[i] -= 1;
            queues[i].extend(server.handle(&client.poll()));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn shared_versions_hold_what_private_sets_hold(
        start in 0u16..1 << 12,
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let universe = universe();
        let snapshot = |mask: u16| {
            let members = universe.iter().enumerate().filter(|(b, _)| mask >> b & 1 == 1);
            VrpUpdate::snapshot(members.map(|(_, v)| *v))
        };
        let mut server = RtrServer::new(1, 2);
        server.publish(snapshot(start));
        let mut clients: Vec<(RtrClient, Model)> =
            (0..CLIENTS).map(|_| (RtrClient::new(), Model::default())).collect();
        let mut session = 1;
        sync(&server, &mut clients, (1 << CLIENTS) - 1, Vec::new(), Vec::new())?;
        let first = clients[0].0.vrp_set();
        prop_assert!(
            clients.iter().all(|(c, _)| std::ptr::eq(c.vrp_set(), first)),
            "one full sync, one set"
        );
        for step in steps {
            match step {
                Step::Publish(mask) => {
                    server.publish(snapshot(mask));
                }
                Step::ResetSession => {
                    session += 1;
                    server.reset_session(session);
                }
                Step::Sync { mask, picks, drops } => sync(&server, &mut clients, mask, picks, drops)?,
            }
            for (i, (client, model)) in clients.iter().enumerate() {
                prop_assert_eq!(client.vrp_set(), &model.set, "client {} after the step", i);
            }
        }
    }
}
