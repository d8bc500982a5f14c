//! One pass of a workload on a fresh thread: the sliced simulation with
//! its checkpoint cycles, then the analysis pipeline and the output
//! checks' raw material. Also the cold set-up builds and the checkpoint
//! cycles of the honest twin world.
//!
//! Every pass, build and cycle series runs on a thread of its own: the
//! crypto memos are thread-local, so each starts cold the way a user's
//! fresh process does.

use crate::host;
use crate::timing::{self, Interval, Meter};
use crate::workload::{self, Scenario, Workload, SLICES};
use nodefinder::{sanitize, ConnOutcome, ConnType, CrawlLog, DataStore, SanitizeParams};
use std::collections::BTreeSet;

/// Kernel samples taken back to back before a thread's first interval.
const WARMUP_SAMPLES: usize = 8;

/// One checkpoint cycle: the whole cycle as an interval, plus its
/// snapshot and restore calls alone (seconds) and the image size.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub total: Interval,
    pub snapshot_s: f64,
    pub restore_s: f64,
    pub bytes: u64,
}

/// What the traced pass read from `obs`.
#[derive(Debug)]
pub struct Trace {
    /// `(name, value)` of every protocol counter and gauge the ledger
    /// reports.
    pub counters: Vec<(&'static str, u64)>,
    /// `(kind, count, total_ms)` from the self-profiler.
    pub kinds: Vec<(&'static str, u64, u64)>,
}

/// Protocol counters and gauges read from the traced pass's recorder.
pub const TRACE_COUNTERS: [&str; 17] = [
    "discv4.pings_sent",
    "discv4.findnodes_sent",
    "discv4.neighbors_received",
    "discv4.table_size_peak",
    "rlpx.auth_written",
    "rlpx.frames_read",
    "devp2p.hello_sent",
    "devp2p.hello_received",
    "crawler.funnel.sightings",
    "crawler.funnel.responded",
    "crawler.funnel.hello",
    "crawler.funnel.status",
    "crawler.stage.discover.backpressure",
    "crawler.stage.dial.backpressure",
    "crawler.stage.handshake.backpressure",
    "crawler.stage.status.backpressure",
    "crawler.stage.ingest.backpressure",
];

/// Gauges among [`TRACE_COUNTERS`].
const TRACE_GAUGES: [&str; 1] = ["discv4.table_size_peak"];

/// Everything one pass measured and produced.
#[derive(Debug)]
pub struct PassOutput {
    /// The pass's kernel samples.
    pub meter: Meter,
    /// Each sim-time slice's `run_until`, in order.
    pub slices: Vec<Interval>,
    /// The checkpoint cycles, in order (campaign only).
    pub cycles: Vec<Cycle>,
    /// Checkpoint cycles that returned `Err`.
    pub cycle_errors: u64,
    /// The cold set-up builds taken during the pass.
    pub builds: Vec<Interval>,
    /// CPU seconds the pass thread spent waiting on a run queue.
    pub runq_wait_s: f64,
    pub events: u64,
    pub queue_depth_peak: u64,
    /// Sum of `NodeFinder::dialing_underflows` over the crawlers.
    pub dialing_underflows: u64,
    /// Digest of the exported `DataStore` JSON and the event count.
    pub digest: u64,
    /// Connection attempts in the merged crawl log.
    pub conns: u64,
    /// Attempts `DataStore::failure_totals` counts as failed probes.
    pub probe_failures: u64,
    /// STATUS-collecting dials per dial attempt.
    pub status_per_dial: f64,
    /// `discovered ≥ dialed ≥ responded ≥ hello ≥ status` over dials.
    pub funnel: [u64; 5],
    /// Share of ground-truth Mainnet nodes with a STATUS in the store.
    pub status_coverage: f64,
    pub from_log_s: f64,
    pub sanitize_s: f64,
    pub tables_s: f64,
    /// Present on the traced pass.
    pub trace: Option<Trace>,
}

/// Run `f` on a fresh thread and wait for it.
pub fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(f)
        .expect("spawn benchmark thread")
        .join()
        .expect("benchmark thread panicked")
}

/// One full checkpoint cycle of the world in `slot`: `NetSim::snapshot`,
/// drop the world, rebuild the shell from `(workload, seed, byzantine)`,
/// and `restore` into it. The old world is gone before the shell is
/// built, as in a process that checkpoints, exits and resumes.
fn checkpoint_cycle(
    slot: &mut Option<Scenario>,
    workload: Workload,
    seed: u64,
    byzantine: bool,
) -> Result<(f64, f64, u64), netsim::SnapError> {
    let live = slot.as_ref().expect("a live world to checkpoint");
    let (image, snapshot_s) = timing::timed(|| live.world.sim.snapshot());
    let image = image?;
    *slot = None;
    let shell = slot.insert(workload::build(workload, seed, byzantine));
    let (restored, restore_s) = timing::timed(|| shell.world.sim.restore(&image));
    restored?;
    Ok((snapshot_s, restore_s, image.len() as u64))
}

/// Run one measured checkpoint cycle; `None` if it returned `Err`.
fn measured_cycle(
    meter: &mut Meter,
    slot: &mut Option<Scenario>,
    workload: Workload,
    seed: u64,
    byzantine: bool,
) -> Option<Cycle> {
    let (result, total) = meter.measure(|| checkpoint_cycle(slot, workload, seed, byzantine));
    match result {
        Ok((snapshot_s, restore_s, bytes)) => Some(Cycle {
            total,
            snapshot_s,
            restore_s,
            bytes,
        }),
        Err(e) => {
            eprintln!("perfbench: checkpoint cycle failed: {e:?}");
            None
        }
    }
}

/// One pass of `workload` for `seed`, on a fresh thread. A traced pass
/// installs `obs::Recorder` and `obs::profile` first. `builds` cold
/// set-up builds are taken at even steps through the pass, between
/// slices, so they sample every state the machine passes through.
pub fn run(workload: Workload, seed: u64, traced: bool, builds: u64) -> PassOutput {
    on_fresh_thread(move || run_here(workload, seed, traced, builds))
}

fn run_here(workload: Workload, seed: u64, traced: bool, builds: u64) -> PassOutput {
    let recorder = traced.then(|| {
        let r = obs::Recorder::new();
        r.install();
        obs::profile::install();
        r
    });
    let sched0 = host::thread_schedstat();
    let mut meter = Meter::new(WARMUP_SAMPLES);
    let mut slot = Some(workload::build(workload, seed, true));
    let sim_ms = workload.sim_ms();
    let mut slices = Vec::with_capacity(SLICES as usize);
    let mut cycles = Vec::new();
    let mut cycle_errors = 0;
    let mut build_times = Vec::new();
    for i in 1..=SLICES {
        if builds > 0 && i.is_multiple_of(SLICES / builds) {
            build_times.push(setup_build(workload, seed));
        }
        let until = sim_ms * i / SLICES;
        let world = &mut slot.as_mut().expect("live world").world;
        let ((), slice) = meter.measure(|| world.sim.run_until(until));
        slices.push(slice);
        if workload
            .checkpoint_every_ms()
            .is_some_and(|every| until.is_multiple_of(every))
        {
            // The recorder's own image rides across the cycle, exactly as
            // a checkpointing campaign carries it.
            let image = recorder.as_ref().map(|r| r.snapshot_state());
            match measured_cycle(&mut meter, &mut slot, workload, seed, true) {
                Some(c) => cycles.push(c),
                None => cycle_errors += 1,
            }
            if let (Some(r), Some(image)) = (&recorder, image) {
                r.restore_state(&image)
                    .expect("recorder image taken in this pass restores");
            }
        }
    }
    let mut scenario = slot.expect("live world");
    let events = scenario.world.sim.events_processed();
    let queue_depth_peak = scenario.world.sim.queue_depth_peak();
    let crawlers = workload::take_crawlers(&mut scenario);
    let dialing_underflows = crawlers.iter().map(|c| c.dialing_underflows()).sum();
    let mut log = CrawlLog::default();
    for c in crawlers {
        log.merge(c.log);
    }
    let runq_wait_s = match (sched0, host::thread_schedstat()) {
        (Some(a), Some(b)) => b.1 - a.1,
        _ => 0.0,
    };

    let (store, from_log_s) = timing::timed(|| DataStore::from_log(&log));
    let ((clean, _), sanitize_s) = timing::timed(|| sanitize(&store, sanitize_params()));
    let (tables, tables_s) = timing::timed(|| render_tables(&clean));
    std::hint::black_box(tables);

    let trace = recorder.map(|r| {
        let summary = obs::profile::summary().expect("profiler installed on this thread");
        obs::profile::uninstall();
        obs::uninstall();
        Trace {
            counters: TRACE_COUNTERS
                .iter()
                .map(|&name| {
                    let v = if TRACE_GAUGES.contains(&name) {
                        r.gauge(name)
                    } else {
                        r.counter(name)
                    };
                    (name, v)
                })
                .collect(),
            kinds: summary.kinds,
        }
    });

    let status_ids: BTreeSet<_> = store.status_nodes().map(|o| o.id).collect();
    let truth: Vec<_> = scenario.world.mainnet_nodes().collect();
    let covered = truth
        .iter()
        .filter(|n| status_ids.contains(&n.initial_id))
        .count();
    let funnel = dial_funnel(&store, &log);
    let dials = log
        .conns
        .iter()
        .filter(|c| c.conn_type != ConnType::Incoming)
        .count();
    let status_dials = log
        .conns
        .iter()
        .filter(|c| c.conn_type != ConnType::Incoming && c.status.is_some())
        .count();
    PassOutput {
        meter,
        slices,
        cycles,
        cycle_errors,
        builds: build_times,
        runq_wait_s,
        events,
        queue_depth_peak,
        dialing_underflows,
        digest: digest(&store.to_json(), events),
        conns: log.conns.len() as u64,
        probe_failures: store.failure_totals().values().sum(),
        status_per_dial: status_dials as f64 / dials.max(1) as f64,
        funnel,
        status_coverage: covered as f64 / truth.len().max(1) as f64,
        from_log_s,
        sanitize_s,
        tables_s,
        trace,
    }
}

/// The dial funnel over the crawl's outgoing connections:
/// `[discovered, dialed, responded, hello, status]` node counts, where
/// `discovered` is every node in the store and the rest count nodes with
/// at least one dial reaching that stage. (The store's own
/// `dial_funnel` counts HELLO and STATUS from incoming connections too,
/// so its `hello` can exceed `responded`.)
fn dial_funnel(store: &DataStore, log: &CrawlLog) -> [u64; 5] {
    let mut sets: [BTreeSet<enode::NodeId>; 4] = Default::default();
    for c in log
        .conns
        .iter()
        .filter(|c| c.conn_type != ConnType::Incoming)
    {
        let Some(id) = c.node_id else { continue };
        let responded = c.hello.is_some() || matches!(c.outcome, ConnOutcome::RemoteDisconnect(_));
        let reached = [true, responded, c.hello.is_some(), c.status.is_some()];
        for (set, hit) in sets.iter_mut().zip(reached) {
            if hit {
                set.insert(id);
            }
        }
    }
    let [dialed, responded, hello, status] = sets.map(|s| s.len() as u64);
    [store.nodes.len() as u64, dialed, responded, hello, status]
}

/// FNV-1a over the exported store JSON, then the event count.
fn digest(store_json: &str, events: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in store_json.bytes().chain(events.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// The §5.4 sanitization thresholds at the simulation's time scale.
fn sanitize_params() -> SanitizeParams {
    SanitizeParams {
        short_lived_ms: 60_000,
        min_nodes_per_ip: 3,
        max_generation_interval_ms: 60_000,
    }
}

/// The §5 tables of the sanitized dataset (funnel, services, networks,
/// clients, version stability), rendered as text.
fn render_tables(store: &DataStore) -> String {
    use analysis::clients::{client_table, version_stability};
    use analysis::ecosystem::{funnel, networks, services_table};
    use analysis::render::count_table;
    let f = funnel(store);
    [
        format!(
            "funnel {} {} {} {}",
            f.total_ids, f.hello_nodes, f.status_nodes, f.mainnet_nodes
        ),
        count_table("DEVp2p services", &services_table(store), 10),
        count_table("nodes per network", &networks(store).per_network, 8),
        count_table("Mainnet clients", &client_table(store), 8),
        format!("{} version-stability rows", version_stability(store).len()),
    ]
    .join("\n")
}

/// Time one cold set-up build of `workload` (world, adversaries and
/// crawlers) on a fresh thread; the world is dropped outside the
/// interval.
fn setup_build(workload: Workload, seed: u64) -> Interval {
    on_fresh_thread(move || {
        let mut meter = Meter::new(WARMUP_SAMPLES);
        let (scenario, interval) = meter.measure(|| workload::build(workload, seed, true));
        drop(scenario);
        interval
    })
}

/// Checkpoint cycles of the honest twin of `workload` (its world without
/// the Byzantine hosts, which by design have no checkpoint state), taken
/// back to back after running the twin for a tenth of the horizon.
pub fn twin_cycles(workload: Workload, seed: u64, n: usize) -> (Vec<Cycle>, u64, Meter) {
    on_fresh_thread(move || {
        let mut meter = Meter::new(WARMUP_SAMPLES);
        let mut slot = Some(workload::build(workload, seed, false));
        if let Some(twin) = slot.as_mut() {
            twin.world.sim.run_until(workload.sim_ms() / 10);
        }
        let mut cycles = Vec::new();
        let mut errors = 0;
        for _ in 0..n {
            match measured_cycle(&mut meter, &mut slot, workload, seed, false) {
                Some(c) => cycles.push(c),
                None => errors += 1,
            }
        }
        (cycles, errors, meter)
    })
}
