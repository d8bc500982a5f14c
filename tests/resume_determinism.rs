//! Checkpoint/restore determinism, end to end: a crawl snapshotted at T
//! and resumed into a freshly built shell must export byte-identical
//! artifacts — DataStore JSON, obs JSONL trace, Prometheus snapshot — to
//! a run that never stopped, at shard counts {1, 4}. This is the proof
//! obligation for the staged pipeline's checkpointing: a snapshot is a
//! pure representation change, never a semantic one.
//!
//! The split run exercises the full restore stack: the netsim engine
//! image (wheels, per-host RNGs, TCP state), the crawler's `NFND`
//! section (interner, dial queue, penalty box, live probes, stage
//! checkpoints, crawl log), and the obs recorder image (metrics
//! registry, trace ring, sequence counter). The world here is honest
//! hosts plus the identity-rotating spammer — the adversary crate's
//! hosts deliberately do not implement `save_state`, so a snapshot of a
//! world containing them fails `Unsupported` by design.

mod resume_world;

use ethereum_p2p::prelude::*;
use resume_world::{build_crawl_world, images_at_t, FULL_MS};

const SHARD_COUNTS: [usize; 2] = [1, 4];

/// keccak256 of the `PSNP` and `OBSS` images at T with one shard. The
/// snapshot formats are versioned: any change to these bytes must bump
/// the owning section's version byte and re-pin the digests here.
const PSNP_KECCAK_AT_T: &str = "f8f021635a60e3459820b69fad516d6306b65f3f2818c84b74e70f9ff9b74876";
const OBSS_KECCAK_AT_T: &str = "040f514e6b752e501b5ecdb13cbde6d0bcdf8213390aeabfd2ef396b8568b650";

/// Everything a crawl externalizes, captured as bytes, plus the
/// accounting the bugfix sweep asserts on.
struct Artifacts {
    store_json: String,
    trace_jsonl: String,
    prometheus: String,
    events: u64,
    dialing_underflows: u64,
}

/// Pull the artifacts out of a finished world and uninstall its
/// recorder. Mirrors the shard-determinism harness: the per-shard
/// queue-depth gauges are one-per-shard by definition, so they are
/// stripped before comparison.
fn extract(mut world: World, host: netsim::HostId, recorder: &obs::Recorder) -> Artifacts {
    let events = world.sim.events_processed();
    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let dialing_underflows = crawler.dialing_underflows();
    let store = DataStore::from_log(&crawler.log);
    obs::uninstall();
    let prometheus = recorder
        .prometheus()
        .lines()
        .filter(|l| !l.contains("netsim_shard_"))
        .map(|l| format!("{l}\n"))
        .collect();
    Artifacts {
        store_json: store.to_json(),
        trace_jsonl: recorder.export_jsonl(),
        prometheus,
        events,
        dialing_underflows,
    }
}

/// The reference: run straight to 2T with no interruption.
fn uninterrupted_run(shards: usize) -> Artifacts {
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, host) = build_crawl_world(shards);
    world.sim.run_until(FULL_MS);
    extract(world, host, &recorder)
}

/// The subject: run to T, snapshot the engine and the recorder, tear
/// everything down, rebuild the shell from config, restore both images,
/// and continue to 2T.
fn split_run(shards: usize) -> Artifacts {
    // First half: 0 → T.
    let images = images_at_t(shards);

    // Second half: fresh shell, restore, T → 2T. The recorder image
    // overwrites whatever the shell build emitted, exactly as those
    // emissions are already folded into the first half's image.
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, host) = build_crawl_world(shards);
    recorder
        .restore_state(&images.obs)
        .expect("recorder restore at T");
    world.sim.restore(&images.sim).expect("engine restore at T");
    assert_eq!(
        world.sim.events_processed(),
        images.events,
        "restore must resume the event count, not reset it"
    );
    world.sim.run_until(FULL_MS);
    assert!(
        world.sim.events_processed() > images.events,
        "resumed run did no work after T"
    );
    extract(world, host, &recorder)
}

fn assert_identical(base: &Artifacts, other: &Artifacts, shards: usize) {
    assert_eq!(
        base.store_json, other.store_json,
        "DataStore diverged after resume at {shards} shards"
    );
    assert_eq!(
        base.trace_jsonl, other.trace_jsonl,
        "obs JSONL trace diverged after resume at {shards} shards"
    );
    assert_eq!(
        base.prometheus, other.prometheus,
        "Prometheus snapshot diverged after resume at {shards} shards"
    );
    assert_eq!(
        base.events, other.events,
        "event totals diverged after resume at {shards} shards"
    );
}

/// Assert the dial-slot accounting stayed clean: the checked decrement
/// never fired its underflow path, neither live nor in any export.
fn assert_accounting_clean(a: &Artifacts, label: &str) {
    assert_eq!(
        a.dialing_underflows, 0,
        "{label}: dialing underflow counter fired"
    );
    assert!(
        !a.prometheus.contains("dialing_underflow"),
        "{label}: underflow counter leaked into the Prometheus export"
    );
    assert!(
        !a.trace_jsonl.contains("dialing_underflow"),
        "{label}: underflow counter leaked into the trace"
    );
}

/// Snapshot-at-T / resume-to-2T is byte-identical to never stopping, at
/// shard counts {1, 4}, and the crawl-accounting fixes hold throughout.
#[test]
fn resume_exports_are_byte_identical() {
    for shards in SHARD_COUNTS {
        let full = uninterrupted_run(shards);
        assert!(
            full.events > 1_000,
            "world too quiet to prove anything at {shards} shards"
        );
        assert!(
            !full.store_json.is_empty() && !full.trace_jsonl.is_empty(),
            "exports must be non-trivial at {shards} shards"
        );
        let resumed = split_run(shards);
        assert_identical(&full, &resumed, shards);
        assert_accounting_clean(&full, "uninterrupted");
        assert_accounting_clean(&resumed, "resumed");
    }
}

/// The stage pipeline actually saw traffic: the checkpointed crawl must
/// show stage counters in its Prometheus export, proving the pipeline
/// instrumentation survives a snapshot/restore cycle rather than being
/// reset by it.
#[test]
fn resumed_run_reports_pipeline_progress() {
    let resumed = split_run(1);
    for stage in ["discover", "dial", "handshake", "ingest"] {
        assert!(
            resumed
                .prometheus
                .contains(&format!("crawler_stage_{stage}_entered")),
            "missing {stage} stage counter in resumed export"
        );
    }
}

/// The snapshot images at T are pinned byte for byte: a refactor of the
/// codecs must not move a single byte, and a deliberate format change
/// must show up here (and bump a version byte).
#[test]
fn snapshot_images_at_t_are_pinned() {
    let images = images_at_t(1);
    let hex = |b: &[u8]| {
        ethereum_p2p::ethcrypto::keccak256(b)
            .iter()
            .map(|x| format!("{x:02x}"))
            .collect::<String>()
    };
    assert_eq!(hex(&images.sim), PSNP_KECCAK_AT_T, "PSNP image at T moved");
    assert_eq!(hex(&images.obs), OBSS_KECCAK_AT_T, "OBSS image at T moved");
}
