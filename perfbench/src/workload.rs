//! The three workload worlds, built only through the public APIs of
//! `ethpop::world`, `netsim`, `adversary` and `nodefinder`.
//!
//! Every world is built by a pure function of `(workload, seed)`: the
//! same pair gives the same world, which is what lets a checkpoint
//! restore into a freshly built shell and what makes the recorded output
//! digests hold.

use adversary::{GarbageHello, ResetAfterN, SlowLoris, Tarpit};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use ethpop::world::{World, WorldConfig};
use netsim::{Host, HostAddr, HostId, HostMeta, Region};
use nodefinder::{CrawlerConfig, NodeFinder};
use std::net::Ipv4Addr;

/// Equal sim-time slices a pass is cut into; the calibration kernel runs
/// once between slices.
pub const SLICES: u64 = 300;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The reference crawl: 36 honest + 4 Byzantine hosts, one crawler,
    /// 10 simulated minutes.
    RefCrawl,
    /// A 5,000-host join storm (2% Byzantine, 16 bootstrap hosts), one
    /// crawler, two scheduler shards.
    Join5k,
    /// The honest ecosystem world (150 nodes, 2 spammer IPs) with three
    /// crawler instances for one 60 s "day", checkpointed every 10 s.
    Campaign,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ref-crawl" => Some(Workload::RefCrawl),
            "join-5k" => Some(Workload::Join5k),
            "campaign" => Some(Workload::Campaign),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RefCrawl => "ref-crawl",
            Workload::Join5k => "join-5k",
            Workload::Campaign => "campaign",
        }
    }

    /// Simulated horizon of the measured run.
    pub fn sim_ms(self) -> u64 {
        match self {
            Workload::RefCrawl => 10 * 60_000,
            Workload::Join5k => 6_000,
            Workload::Campaign => 60_000,
        }
    }

    /// Wall seconds one pass (with its builds and twin cycles) takes on
    /// the tuning box, which sets how many passes fit in `--seconds`.
    pub fn nominal_pass_s(self) -> u64 {
        match self {
            Workload::RefCrawl => 8,
            Workload::Join5k => 13,
            Workload::Campaign => 11,
        }
    }

    /// Cold set-up builds taken during each pass.
    pub fn builds_per_pass(self) -> u64 {
        match self {
            Workload::Join5k => 5,
            _ => 10,
        }
    }

    /// Sim-time between checkpoint cycles of the measured run (campaign
    /// only: the other worlds hold Byzantine hosts, which have no
    /// checkpoint state by design).
    pub fn checkpoint_every_ms(self) -> Option<u64> {
        match self {
            Workload::Campaign => Some(10_000),
            _ => None,
        }
    }

    /// The population's seed: fixed per workload, so every benchmark
    /// seed crawls the same world.
    fn world_seed(self) -> u64 {
        match self {
            Workload::RefCrawl => 4242,
            Workload::Join5k => 14_000,
            Workload::Campaign => 1804,
        }
    }
}

/// Secret key of crawler `instance` for a benchmark seed. Seed 0 keeps
/// the reference key; any other seed draws a fresh identity, which moves
/// the crawler to another part of the ID space and so changes which
/// nodes its lookups reach first and in what order.
fn crawler_key(seed: u64, instance: u32, reference: [u8; 32]) -> SecretKey {
    let mut bytes = reference;
    if seed != 0 {
        let mut state = seed ^ (u64::from(instance) << 48);
        for chunk in bytes.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_be_bytes());
        }
        // Stay well below the group order.
        bytes[0] &= 0x7F;
    }
    SecretKey::from_bytes(&bytes).expect("crawler key is a valid scalar")
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A built world plus the host ids of its crawler instances.
pub struct Scenario {
    pub world: World,
    pub crawlers: Vec<HostId>,
}

/// Build `workload`'s world for `seed`. With `byzantine == false` the
/// adversary hosts are left out: that honest twin is the world the
/// checkpoint cycle of `ref-crawl` and `join-5k` is measured on.
pub fn build(workload: Workload, seed: u64, byzantine: bool) -> Scenario {
    let world_seed = workload.world_seed();
    match workload {
        Workload::RefCrawl => {
            let config = WorldConfig {
                seed: world_seed,
                n_nodes: 36,
                duration_ms: workload.sim_ms(),
                always_on_fraction: 1.0,
                spammer_ips: 0,
                udp_loss: 0.0,
                ..WorldConfig::default()
            };
            let crawler = CrawlerConfig {
                static_redial_interval_ms: 60_000,
                stale_after_ms: 10 * 60_000,
                probe_timeout_ms: 30_000,
                penalty_threshold: 3,
                penalty_box_ms: 2 * 60_000,
                ..CrawlerConfig::default()
            };
            let key = crawler_key(seed, 0, [0xCB; 32]);
            // The reference crawl's four adversaries, keyed as in the
            // repository's instrumented reference crawl.
            let adversaries = if byzantine { 4 } else { 0 };
            single_crawler(config, key, crawler, adversaries, |i| [0xA0 + i as u8; 32])
        }
        Workload::Join5k => {
            let hosts = 5_000;
            let n_byzantine = hosts / 50;
            let config = WorldConfig {
                seed: world_seed,
                n_nodes: hosts - n_byzantine,
                duration_ms: workload.sim_ms(),
                tx_interval_ms: 20_000,
                shards: 2,
                n_bootstrap: 16,
                ..WorldConfig::default()
            };
            let crawler = CrawlerConfig {
                static_redial_interval_ms: 30_000,
                stale_after_ms: workload.sim_ms(),
                probe_timeout_ms: 30_000,
                ..CrawlerConfig::default()
            };
            let key = crawler_key(seed, 0, [0xCB; 32]);
            let adversaries = if byzantine { n_byzantine } else { 0 };
            single_crawler(config, key, crawler, adversaries, |i| {
                let mut key = [0xB0u8; 32];
                key[30] = (i >> 8) as u8;
                key[31] = i as u8;
                key
            })
        }
        Workload::Campaign => campaign(world_seed, seed, workload.sim_ms()),
    }
}

/// A world with `n_byzantine` adversary hosts (cycling through the four
/// probe-breaking behaviours) and one NodeFinder, all started at t=0.
fn single_crawler(
    config: WorldConfig,
    key: SecretKey,
    crawler: CrawlerConfig,
    n_byzantine: usize,
    adversary_key: fn(usize) -> [u8; 32],
) -> Scenario {
    type AdvFactory = fn(SecretKey, Vec<Endpoint>) -> Box<dyn Host>;
    let factories: [AdvFactory; 4] = [
        |k, b| Box::new(SlowLoris::new(k, b)),
        |k, b| Box::new(GarbageHello::new(k, b)),
        |k, b| Box::new(Tarpit::new(k, b)),
        |k, b| Box::new(ResetAfterN::new(k, b)),
    ];
    let mut world = World::build(config);
    let mut bootstrap = world.bootstrap.clone();
    let boot_eps: Vec<Endpoint> = world.bootstrap.iter().map(|r| r.endpoint).collect();
    for i in 0..n_byzantine {
        let key =
            SecretKey::from_bytes(&adversary_key(i)).expect("adversary key is a valid scalar");
        let ep = Endpoint::new(
            Ipv4Addr::new(203, 0, (113 + i / 250) as u8, (i % 250) as u8 + 1),
            30303,
        );
        bootstrap.push(NodeRecord::new(NodeId::from_secret_key(&key), ep));
        let meta = HostMeta {
            country: "US",
            asn: "Test",
            region: Region::NorthAmerica,
            reachable: true,
        };
        let host = world.sim.add_host(
            HostAddr::new(ep.ip, ep.tcp_port),
            meta,
            factories[i % factories.len()](key, boot_eps.clone()),
        );
        world.sim.schedule_start(host, 0);
    }
    let crawler = NodeFinder::new(key, crawler, bootstrap);
    let host = world.sim.add_host(
        HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
        HostMeta::default_cloud(),
        Box::new(crawler),
    );
    world.sim.schedule_start(host, 0);
    Scenario {
        world,
        crawlers: vec![host],
    }
}

/// The compressed ecosystem campaign: one 60 s "day" of the 150-node
/// world with its spammers, crawled by three NodeFinder instances whose
/// intervals are the paper's scaled by `day_ms / 24h`.
fn campaign(world_seed: u64, seed: u64, day_ms: u64) -> Scenario {
    let config = WorldConfig {
        seed: world_seed,
        n_nodes: 150,
        day_ms,
        duration_ms: day_ms,
        spammer_ips: 2,
        spammer_rotation_ms: (day_ms / 40).max(10_000),
        tx_interval_ms: 20_000,
        ..WorldConfig::default()
    };
    let scaled = |real_ms: u64| (real_ms * day_ms / (24 * 3_600_000)).max(1_000);
    let mut world = World::build(config);
    let mut crawlers = Vec::new();
    for i in 0..3u32 {
        let mut reference = [0xC7u8; 32];
        reference[31] = i as u8;
        let key = crawler_key(seed, i, reference);
        let crawler = CrawlerConfig {
            instance: i,
            lookup_interval_ms: 4_000,
            static_redial_interval_ms: scaled(30 * 60_000),
            stale_after_ms: scaled(24 * 3_600_000).max(day_ms),
            max_active_dials: 16,
            probe_timeout_ms: 30_000,
            dao_check: true,
            hold_connections: false,
            ..CrawlerConfig::default()
        };
        let crawler = NodeFinder::new(key, crawler, world.bootstrap.clone());
        let meta = HostMeta {
            country: "US",
            asn: "UIUC",
            region: Region::NorthAmerica,
            reachable: true,
        };
        let host = world.sim.add_host(
            HostAddr::new(Ipv4Addr::new(192, 17, 100, 10 + i as u8), 30303),
            meta,
            Box::new(crawler),
        );
        world.sim.schedule_start(host, 0);
        crawlers.push(host);
    }
    Scenario { world, crawlers }
}

/// Take the crawler behaviours out of a finished world, in instance
/// order.
pub fn take_crawlers(scenario: &mut Scenario) -> Vec<NodeFinder> {
    scenario
        .crawlers
        .iter()
        .map(|&host| {
            *scenario
                .world
                .sim
                .remove_host_behaviour(host)
                .expect("crawler host is present")
                .into_any()
                .downcast::<NodeFinder>()
                .expect("crawler host runs a NodeFinder")
        })
        .collect()
}
