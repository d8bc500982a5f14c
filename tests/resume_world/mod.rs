//! The checkpointed crawl world shared by `tests/resume_determinism.rs`
//! and `tests/snapshot_corruption.rs`: honest hosts plus the
//! identity-rotating spammer, and a NodeFinder, snapshotted mid-crawl.

use ethereum_p2p::prelude::*;
use std::net::Ipv4Addr;

/// Snapshot point. The crawl is well underway: discovery has fanned
/// out, dynamic dials and static re-dials are in flight, and probes are
/// mid-handshake — exactly the state a checkpoint must capture.
pub const T_MS: u64 = 2 * 60_000;
/// Uninterrupted-run horizon (and the resumed run's target).
pub const FULL_MS: u64 = 4 * 60_000;

fn world_config(shards: usize) -> WorldConfig {
    WorldConfig {
        seed: 4242,
        n_nodes: 24,
        duration_ms: FULL_MS,
        always_on_fraction: 0.5,
        spammer_ips: 1,
        udp_loss: 0.05,
        shards,
        ..WorldConfig::default()
    }
}

/// Build the crawl world: the honest/spammer population from
/// `World::build` plus the NodeFinder. Identical config ⇒ identical
/// static structure, so the same builder serves both the uninterrupted
/// run and the restore shell.
pub fn build_crawl_world(shards: usize) -> (World, netsim::HostId) {
    let mut world = World::build(world_config(shards));
    let crawler_key = SecretKey::from_bytes(&[0xCB; 32]).unwrap();
    let crawler = NodeFinder::new(
        crawler_key,
        CrawlerConfig {
            static_redial_interval_ms: 60_000,
            stale_after_ms: FULL_MS,
            probe_timeout_ms: 30_000,
            penalty_threshold: 3,
            penalty_box_ms: 2 * 60_000,
            ..CrawlerConfig::default()
        },
        world.bootstrap.clone(),
    );
    let host = world.sim.add_host(
        HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
        HostMeta::default_cloud(),
        Box::new(crawler),
    );
    world.sim.schedule_start(host, 0);
    (world, host)
}

/// Both images of the crawl world at T.
pub struct Images {
    /// `NetSim::snapshot`: the `PSNP` engine image, embedding one `ETHN`
    /// section per population host and the crawler's `NFND` section.
    pub sim: Vec<u8>,
    /// `Recorder::snapshot_state`: the `OBSS` recorder image.
    pub obs: Vec<u8>,
    /// Events dispatched before the snapshot.
    pub events: u64,
}

/// Run the crawl world from 0 to T under a fresh recorder, snapshot the
/// engine and the recorder, and tear everything down.
pub fn images_at_t(shards: usize) -> Images {
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, _host) = build_crawl_world(shards);
    world.sim.run_until(T_MS);
    let images = Images {
        sim: world.sim.snapshot().expect("engine snapshot at T"),
        obs: recorder.snapshot_state(),
        events: world.sim.events_processed(),
    };
    obs::uninstall();
    images
}
