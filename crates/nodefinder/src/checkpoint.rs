//! Crawler checkpoint/restore — the `NFND` v1 snapshot section.
//!
//! Like every snapshotting layer in this workspace (netsim `PSNP`, obs
//! `OBSS`, ethpop `ETHN`), the crawler follows the rebuild-shell /
//! restore-state split: the world shell reconstructs the *static*
//! structure (identity key, config, bootstrap list, the chain view) by
//! re-running `NodeFinder::new`, and this module serializes only the
//! *dynamic* state a restore cannot rebuild — the intern table, the
//! discovery service, every pipeline queue and table, the live probe
//! sessions, the per-stage checkpoints, and the accumulated crawl log.
//!
//! Field order (all inside one versioned `obs::snap` section):
//!
//! 1. intern table — `NodeId`s in compact-id order, so re-interning
//!    reproduces identical `CompactId`s and every dense table below can
//!    be restored by index;
//! 2. discovery (`Discv4::write_state`, endpoint first);
//! 3. the bounded dial queue (records front-to-back + marks);
//! 4. the queued-id set;
//! 5. static nodes, in full-`NodeId` order;
//! 6. the seen table's stamp vector;
//! 7. penalty-box entries + monotone box total;
//! 8. session manager: dial-slot counters, then each live probe in
//!    numeric `ConnId` order (`PeerConn` wire state + the in-progress
//!    `ConnLog` as JSON);
//! 9. scheduler arm flags;
//! 10. the five pipeline [`StageCheckpoint`](crate::stages::StageCheckpoint)s;
//! 11. the crawl log as JSONL.
//!
//! Timers are *not* serialized here: the netsim snapshot owns the timer
//! wheel, and restoring it re-delivers `T_*` tokens at the right instants.

use crate::crawler::{NodeFinder, StaticEntry};
use crate::dense::{IdSet, OrderedDenseMap, SeenTable, CONN_IDX_MASK};
use crate::log::{ConnLog, ConnType, CrawlLog};
use crate::session::{Probe, SessionManager};
use crate::stages::{BoundedQueue, Stage};
use discv4::{Config as DiscConfig, Discv4};
use enode::{CompactId, Interner, NodeId};
use ethpop::wire::PeerConn;
use kad::Metric;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};

const SNAP_MAGIC: [u8; 4] = *b"NFND";
const SNAP_VERSION: u8 = 1;

impl NodeFinder {
    /// Serialize every piece of dynamic crawler state (see the module
    /// docs for the exact field order).
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_header(SNAP_MAGIC, SNAP_VERSION);
        // 1. Intern table, in compact-id order.
        let n = self.interner.len();
        w.put_seq((0..n).map(|i| self.interner.resolve(CompactId::from_u32(i as u32))));
        // 2. Discovery.
        w.put(&self.disc.is_some());
        if let Some(disc) = &self.disc {
            disc.write_state(&mut w);
        }
        // 3. Dial queue (items front to back, then the marks).
        w.put_seq(self.dial_queue.iter());
        w.put(&(self.dial_queue.high_water(), self.dial_queue.rejected()));
        // 4. Queued-id set.
        w.put_seq(self.queued.bits());
        // 5. Static nodes, in full-NodeId order (restore re-sorts
        // identically because the order is a function of the ids).
        w.put_seq(self.static_nodes.iter_ordered().map(|(_, e)| e));
        // 6. Seen stamps (dense by compact id).
        w.put_seq(self.seen.stamps());
        // 7. Penalty box.
        w.put(&self.sessions.penalty.export_entries());
        w.put(&self.sessions.penalty.boxed_total());
        // 8. Session manager: counters, then live probes in ConnId order.
        w.put(&(self.sessions.dialing(), self.sessions.dialing_underflows()));
        let ids = self.sessions.conns.ids_sorted();
        w.put(&ids.len());
        for conn in ids {
            let p = self.sessions.conns.get(conn).expect("sorted id is live");
            p.pc.write_state(&mut w);
            w.put(&p.conn_type);
            // serde_json output is deterministic (struct field order), so
            // the in-progress log entry can ride along as a JSON string.
            w.str(&serde_json::to_string(&p.record).expect("conn log serializes"));
            w.put(&(p.awaiting_dao, p.done, p.connected));
            w.put(&(p.deadline_ms, p.stage_start_ms));
        }
        // 9. Scheduler arm flags (their timers live in the netsim wheel).
        w.put(&(self.poll_armed, self.dial_armed));
        // 10. Pipeline stage checkpoints, with the dial queue's live
        // marks folded in.
        let mut stages = self.stages.clone();
        stages.set_queue(
            Stage::Dial,
            self.dial_queue.len(),
            self.dial_queue.high_water(),
        );
        w.put(&stages);
        // 11. The accumulated crawl log.
        w.str(&self.log.to_jsonl());
        w.finish()
    }

    /// Overwrite this (shell-rebuilt) crawler's dynamic state from
    /// [`NodeFinder::encode_state`] output. Everything is decoded into
    /// fresh values before anything is assigned, so a rejected image
    /// leaves the crawler as it was. Probes index the dense probe table
    /// by connection slot, so each must name a distinct slot below the
    /// engine's `conn_slots`.
    pub(crate) fn apply_state(&mut self, bytes: &[u8], conn_slots: usize) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, SNAP_MAGIC, SNAP_VERSION)?;
        // 1. Intern table: re-interning in stored order reproduces the
        // exact compact ids every dense table below is keyed by.
        let mut interner = Interner::new();
        for id in r.get::<Vec<NodeId>>()? {
            interner.intern(&id);
        }
        // 2. Discovery (same config as `on_start` builds).
        let disc = if r.get()? {
            let config = DiscConfig {
                metric: Metric::GethLog2,
                ..DiscConfig::default()
            };
            Some(Discv4::read_state(self.key, config, &mut r)?)
        } else {
            None
        };
        // 3. Dial queue.
        let items = r.get()?;
        let (high_water, rejected) = r.get()?;
        let dial_queue =
            BoundedQueue::from_parts(self.config.dial_queue_cap, items, high_water, rejected);
        // 4. Queued-id set.
        let queued = IdSet::from_bits(r.get()?);
        // 5. Static nodes.
        let mut static_nodes = OrderedDenseMap::new();
        for e in r.get::<Vec<StaticEntry>>()? {
            static_nodes.insert(interner.intern(&e.record.id), e);
        }
        // 6. Seen stamps.
        let seen = SeenTable::from_stamps(r.get()?);
        // 7. Penalty box, into a fresh session manager.
        let mut sessions = SessionManager::new(
            self.config.backoff.clone(),
            self.config.penalty_threshold,
            self.config.penalty_box_ms,
        );
        let entries = r.get()?;
        sessions
            .penalty
            .import_entries(&mut interner, entries, r.get()?);
        // 8. Session counters + live probes.
        let (dialing, underflows) = r.get()?;
        sessions.restore_counters(dialing, underflows);
        for _ in 0..r.count()? {
            let pc = PeerConn::read_state(&mut r, &self.key)?;
            if pc.conn & CONN_IDX_MASK >= conn_slots || sessions.conns.slot_taken(pc.conn) {
                return Err(SnapError::Corrupt("probe conn outside the engine's slab"));
            }
            let conn_type = r.get()?;
            let record: ConnLog = serde_json::from_str(r.str()?)
                .map_err(|_| SnapError::Corrupt("probe conn log does not parse"))?;
            let (awaiting_dao, done, connected) = r.get()?;
            let (deadline_ms, stage_start_ms) = r.get()?;
            sessions.conns.insert(
                pc.conn,
                Probe {
                    pc,
                    conn_type,
                    record,
                    awaiting_dao,
                    done,
                    connected,
                    deadline_ms,
                    stage_start_ms,
                },
            );
        }
        // 9. Scheduler arm flags.
        let (poll_armed, dial_armed) = r.get()?;
        // 10. Pipeline stage checkpoints.
        let stages = r.get()?;
        // 11. Crawl log.
        let log = CrawlLog::from_jsonl(r.str()?)
            .map_err(|_| SnapError::Corrupt("crawl log does not parse"))?;
        r.finish()?;

        self.interner = interner;
        self.disc = disc;
        self.dial_queue = dial_queue;
        self.queued = queued;
        self.static_nodes = static_nodes;
        self.seen = seen;
        self.sessions = sessions;
        self.poll_armed = poll_armed;
        self.dial_armed = dial_armed;
        self.stages = stages;
        self.log = log;
        Ok(())
    }
}

/// Snapshot image: record, next dial, last success.
impl Snap for StaticEntry {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&(self.record, self.next_dial_ms, self.last_success_ms));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<StaticEntry, SnapError> {
        let (record, next_dial_ms, last_success_ms) = r.get()?;
        Ok(StaticEntry {
            record,
            next_dial_ms,
            last_success_ms,
        })
    }
}

/// Snapshot image: one tag byte in declaration order.
impl Snap for ConnType {
    fn put(&self, w: &mut SnapWriter) {
        w.put(&(*self as u8));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<ConnType, SnapError> {
        Ok(match r.get::<u8>()? {
            0 => ConnType::DynamicDial,
            1 => ConnType::StaticDial,
            2 => ConnType::Incoming,
            _ => return Err(SnapError::Corrupt("probe conn-type tag out of range")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::CrawlerConfig;
    use crate::log::{ConnOutcome, DialEvent, DialEventKind};
    use enode::{Endpoint, NodeId, NodeRecord};
    use ethcrypto::secp256k1::SecretKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn rec(tag: u8) -> NodeRecord {
        NodeRecord::new(
            NodeId([tag; 64]),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, tag), 30303),
        )
    }

    fn crawler() -> NodeFinder {
        let key = SecretKey::from_bytes(&[0xCB; 32]).expect("valid key");
        NodeFinder::new(key, CrawlerConfig::default(), vec![rec(1)])
    }

    /// Populate a crawler off-sim (no sockets, no discovery) and check
    /// that a shell-rebuilt crawler restored from its snapshot produces a
    /// byte-identical second snapshot. The full in-sim proof (snapshot at
    /// T, resume, identical artifacts at 2T) lives in the workspace
    /// `resume_determinism` suite.
    #[test]
    fn encode_apply_round_trips_bytewise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut nf = crawler();
        for tag in [9u8, 3, 5] {
            let cid = nf.interner.intern(&rec(tag).id);
            nf.seen.note(cid, 1_000 + tag as u64);
            if nf.queued.insert(cid) {
                nf.dial_queue.push_back(rec(tag)).expect("queue has room");
            }
        }
        let boxed = nf.interner.intern(&rec(11).id);
        for t in 0..5u64 {
            nf.sessions
                .penalty
                .record_failure(boxed, rec(11), t * 1_000, &mut rng);
        }
        nf.static_nodes.insert(
            nf.interner.intern(&rec(13).id),
            StaticEntry {
                record: rec(13),
                next_dial_ms: 90_000,
                last_success_ms: 60_000,
            },
        );
        nf.sessions.begin_dial();
        nf.stages.note_entered(Stage::Discover);
        nf.stages.note_completed(Stage::Discover);
        nf.stages.note_entered(Stage::Dial);
        let conn_log = ConnLog {
            instance: 0,
            ts_ms: 42,
            node_id: Some(rec(9).id),
            ip: Ipv4Addr::new(10, 0, 0, 9),
            port: 30303,
            conn_type: ConnType::DynamicDial,
            latency_ms: 12,
            duration_ms: 340,
            hello: None,
            status: None,
            dao_fork: None,
            outcome: ConnOutcome::DialFailed,
            failure: None,
        };
        nf.log.conns.push(conn_log.clone());
        // A live probe on connection slot 3 (generation 1).
        let conn = (1 << 32) | 3;
        let hello = devp2p::Hello {
            p2p_version: devp2p::P2P_VERSION,
            client_id: "NodeFinder/test".into(),
            capabilities: vec![],
            listen_port: 30303,
            node_id: nf.node_id(),
        };
        nf.sessions.conns.insert(
            conn,
            Probe {
                pc: PeerConn::dialing(conn, rec(9).id, hello, 40),
                conn_type: ConnType::DynamicDial,
                record: conn_log,
                awaiting_dao: false,
                done: false,
                connected: false,
                deadline_ms: 30_040,
                stage_start_ms: 40,
            },
        );
        nf.log.events.push(DialEvent {
            instance: 0,
            ts_ms: 41,
            node_id: rec(9).id,
            ip: Ipv4Addr::new(10, 0, 0, 9),
            kind: DialEventKind::DiscoverySighting,
        });
        nf.poll_armed = true;

        let snap = nf.encode_state();
        let mut restored = crawler();
        restored.apply_state(&snap, 4).expect("snapshot applies");
        assert_eq!(
            restored.encode_state(),
            snap,
            "second snapshot is byte-identical"
        );
        assert_eq!(restored.sessions.dialing(), 1);
        assert_eq!(restored.dial_queue.len(), nf.dial_queue.len());
        assert_eq!(restored.static_list_len(), nf.static_list_len());
        assert_eq!(
            restored.sessions.penalty.boxed_total(),
            nf.sessions.penalty.boxed_total()
        );
        assert_eq!(restored.log.to_jsonl(), nf.log.to_jsonl());
        assert_eq!(
            restored.stage_checkpoint(Stage::Discover).entered,
            nf.stage_checkpoint(Stage::Discover).entered
        );
        assert!(restored.sessions.conns.contains(conn));

        // A probe on a connection slot the engine does not have is
        // corrupt (it would size the dense probe table), and the rejected
        // image leaves the shell exactly as it was.
        let mut shell = crawler();
        let before = shell.encode_state();
        assert!(shell.apply_state(&snap, 3).is_err());
        assert_eq!(shell.encode_state(), before);
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let nf = crawler();
        let mut snap = nf.encode_state();
        let last = snap.len() - 1;
        snap.truncate(last);
        let mut fresh = crawler();
        assert!(
            fresh.apply_state(&snap, 0).is_err(),
            "truncated image fails"
        );
        let mut bad_magic = nf.encode_state();
        bad_magic[0] ^= 0xFF;
        assert!(fresh.apply_state(&bad_magic, 0).is_err(), "bad magic fails");
    }
}
