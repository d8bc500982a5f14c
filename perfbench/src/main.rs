//! End-to-end and per-layer benchmark of a NodeFinder campaign on the
//! simulated DEVp2p network.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ref-crawl --seed 0 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger; the last line of standard output is one JSON object either
//! way. See `README.md` for the metrics, the workloads and the noise
//! handling.
#![forbid(unsafe_code)]

mod host;
mod pass;
mod probes;
mod timing;
mod workload;

use pass::{Cycle, PassOutput};
use std::fmt::Write as _;
use timing::{median, median_time, Interval, Meter};
use workload::Workload;

/// Recorded `(workload, digest)` of the exported `DataStore` JSON plus
/// `events_processed`, for seed 0. Any change means the program's
/// observable behaviour changed.
const REFERENCE_DIGESTS: [(Workload, u64); 3] = [
    (Workload::RefCrawl, 0xeb6b_3980_752c_5bf8),
    (Workload::Join5k, 0x0189_2a6e_00ed_6d2b),
    (Workload::Campaign, 0xe0c7_578b_d209_9c62),
];

/// Checkpoint cycles of the honest twin taken after each pass (workloads
/// without checkpoints of their own).
const TWIN_CYCLES: usize = 6;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 30;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metric values in print order, with units.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Output checks and operation counts.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Record one output check.
    fn check(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {name}");
        }
    }

    /// Record checkpoint cycles, `errors` of which returned `Err`.
    fn cycles(&mut self, ok: usize, errors: u64) {
        self.attempted += ok as u64 + errors;
        self.failed += errors;
    }
}

/// The invariants every pass must meet, for any seed.
fn check_pass(ledger: &mut Ledger, p: &PassOutput) {
    ledger.check(
        "funnel monotone (discovered >= dialed >= responded >= hello >= status)",
        p.funnel.windows(2).all(|w| w[0] >= w[1]),
    );
    ledger.check("dialing_underflows == 0", p.dialing_underflows == 0);
    ledger.cycles(p.cycles.len(), p.cycle_errors);
}

/// For seed 0, the recorded digest.
fn check_reference(ledger: &mut Ledger, workload: Workload, seed: u64, digest: u64) {
    if seed != 0 {
        return;
    }
    let expected = REFERENCE_DIGESTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, d)| d);
    ledger.check(
        &format!("reference digest for seed 0: got {digest:#018x}"),
        expected == Some(digest),
    );
}

/// Checkpoint cycles of the honest twin, for the workloads whose own
/// world cannot be checkpointed.
fn twin(workload: Workload, seed: u64) -> Option<(Vec<Cycle>, u64, Meter)> {
    (workload.checkpoint_every_ms().is_none())
        .then(|| pass::twin_cycles(workload, seed, TWIN_CYCLES))
}

/// A pass's corrected run time: the sum of its slices' corrected times.
/// On-CPU time moves in scheduler ticks, so single slices are coarse, but
/// the errors cancel in the sum.
fn corrected_run_s(pass: &PassOutput) -> f64 {
    pass.slices.iter().map(|s| s.corrected()).sum()
}

/// Checkpoint cycle time: the median, over the cycle positions of a pass,
/// of the median time the passes took at that position. The twin's
/// cycles all repeat the same cycle, so they form one position.
fn checkpoint_s(passes: &[PassOutput], twins: &[(Vec<Cycle>, u64, Meter)]) -> f64 {
    let mut per_position: Vec<f64> = if twins.is_empty() {
        (0..passes[0].cycles.len())
            .map(|j| {
                median_time(
                    passes
                        .iter()
                        .filter_map(|p| p.cycles.get(j))
                        .map(|c| &c.total),
                )
            })
            .collect()
    } else {
        vec![median_time(
            twins.iter().flat_map(|t| &t.0).map(|c| &c.total),
        )]
    };
    median(&mut per_position)
}

/// Interference telemetry, printed on its own line in every run.
fn telemetry(meters: &[&Meter], steal_s: f64, runq_wait_s: f64) -> Metrics {
    let mut t = Metrics::default();
    t.put(
        "host.cal_min_us",
        timing::calm(meters.iter().copied()) * 1e6,
        "us",
    );
    t.put(
        "host.cal_slowdown_p50",
        timing::slowdown_p50(meters.iter().copied()),
        "ratio",
    );
    t.put("host.steal_s", steal_s, "s");
    t.put("host.runq_wait_s", runq_wait_s, "s");
    t
}

/// Passes per run: as many as fit in `seconds` at the workload's nominal
/// pass time, at least one. A function of the arguments only, so two
/// commits run with the same settings do the same work.
fn passes_for(workload: Workload, seconds: u64) -> u64 {
    let nominal = workload.nominal_pass_s();
    ((seconds + nominal / 2) / nominal).clamp(1, 9)
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, ledger: &mut Ledger) -> Metrics {
    let w = args.workload;
    let steal0 = host::steal_s();
    // Passes (with their cold builds) and twin cycles interleave, so each
    // metric's repeats are spread over the whole run rather than bunched
    // into one stretch of it.
    let mut passes = Vec::new();
    let mut twins = Vec::new();
    for _ in 0..passes_for(w, args.seconds) {
        passes.push(pass::run(w, args.seed, false, w.builds_per_pass()));
        twins.extend(twin(w, args.seed));
    }
    let peak_rss = host::peak_rss_bytes();

    let first = &passes[0];
    for p in &passes {
        check_pass(ledger, p);
    }
    ledger.check(
        "every pass exports the same DataStore and event count",
        passes.iter().all(|p| p.digest == first.digest),
    );
    check_reference(ledger, w, args.seed, first.digest);
    for (cycles, errors, _) in &twins {
        ledger.cycles(cycles.len(), *errors);
    }
    ledger.attempted += first.conns;

    let sim_s = w.sim_ms() as f64 / 1000.0;
    let mut run_s: Vec<f64> = passes.iter().map(corrected_run_s).collect();
    let builds: Vec<&Interval> = passes.iter().flat_map(|p| &p.builds).collect();
    let setup_s = median_time(builds.iter().copied());
    let last_image = match twins.last() {
        Some(t) => t.0.last().map_or(0, |c| c.bytes),
        None => first.cycles.last().map_or(0, |c| c.bytes),
    };

    let mut meters: Vec<&Meter> = passes.iter().map(|p| &p.meter).collect();
    meters.extend(twins.iter().map(|t| &t.2));
    let runq: f64 = passes.iter().map(|p| p.runq_wait_s).sum();
    let mut tele = telemetry(&meters, host::steal_s() - steal0, runq);
    // The same run without each noise defence, for the README's
    // before/after spreads.
    let raw_run_s: f64 = first.slices.iter().map(|s| s.wall).sum();
    tele.put("raw.sim_s_per_s", sim_s / raw_run_s, "s/s");
    tele.put("one_pass.sim_s_per_s", sim_s / run_s[0], "s/s");
    let mut raw_builds: Vec<f64> = builds.iter().map(|b| b.wall).collect();
    tele.put("raw.setup_s", median(&mut raw_builds), "s");
    println!(
        "{{\"workload\": \"{}\", \"telemetry\": {}, \"digest\": \"{:#018x}\"}}",
        w.name(),
        tele.json(),
        first.digest
    );

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("sim_s_per_s", sim_s / median(&mut run_s), "s/s");
    m.put("peak_rss_mb", peak_rss as f64 / 1e6, "MB");
    m.put("checkpoint_s", checkpoint_s(&passes, &twins), "s");
    m.put("snapshot_mb", last_image as f64 / 1e6, "MB");
    m.put("status_coverage", first.status_coverage, "ratio");
    m
}

/// `--trace 1`: the per-layer ledger, from one untraced and one traced
/// pass, the checkpoint cycles and the unit-cost probes.
fn per_layer(args: &Args, ledger: &mut Ledger) -> Metrics {
    let w = args.workload;
    let steal0 = host::steal_s();
    let plain = pass::run(w, args.seed, false, 0);
    let traced = pass::run(w, args.seed, true, 0);
    let twin = twin(w, args.seed);
    let probes = probes::run_all();

    check_pass(ledger, &plain);
    check_pass(ledger, &traced);
    ledger.check(
        "traced pass exports the same DataStore as the untraced pass",
        traced.digest == plain.digest,
    );
    check_reference(ledger, w, args.seed, plain.digest);
    if let Some((cycles, errors, _)) = &twin {
        ledger.cycles(cycles.len(), *errors);
    }
    ledger.attempted += plain.conns;

    let mut meters = vec![&plain.meter, &traced.meter];
    meters.extend(twin.iter().map(|t| &t.2));
    let plain_s = corrected_run_s(&plain);
    let traced_s = corrected_run_s(&traced);
    let sim_s = w.sim_ms() as f64 / 1000.0;

    let mut m = Metrics::default();
    for (name, value) in probes {
        let unit = if name.ends_with("_mb_s") {
            "MB/s"
        } else {
            "us"
        };
        m.put(name, value, unit);
    }
    let trace = traced.trace.as_ref().expect("traced pass carries a trace");
    for kind in [
        "udp",
        "tcp_syn",
        "tcp_establish",
        "tcp_data",
        "tcp_close",
        "timer",
        "start_host",
        "stop_host",
        "set_reachable",
    ] {
        let (count, total_ms) = trace
            .kinds
            .iter()
            .find(|k| k.0 == kind)
            .map_or((0, 0), |k| (k.1, k.2));
        m.put(format!("netsim.kind.{kind}.count"), count as f64, "count");
        if matches!(kind, "udp" | "tcp_establish" | "tcp_data" | "timer") {
            let avg_us = total_ms as f64 * 1000.0 / count.max(1) as f64;
            m.put(format!("netsim.kind.{kind}.avg_us"), avg_us, "us");
        }
    }
    m.put("netsim.events", plain.events as f64, "count");
    m.put(
        "netsim.events_per_sim_s",
        plain.events as f64 / sim_s,
        "1/s",
    );
    m.put(
        "netsim.queue_depth_peak",
        plain.queue_depth_peak as f64,
        "count",
    );
    m.put(
        "netsim.us_per_event",
        plain_s * 1e6 / plain.events.max(1) as f64,
        "us",
    );
    m.put(
        "netsim.run_wall_s",
        plain.slices.iter().map(|s| s.wall).sum(),
        "s",
    );
    let cycles: &[Cycle] = twin.as_ref().map_or(&plain.cycles, |t| &t.0);
    let mut snap: Vec<f64> = cycles.iter().map(|c| c.snapshot_s).collect();
    let mut restore: Vec<f64> = cycles.iter().map(|c| c.restore_s).collect();
    m.put("netsim.snapshot_s", median(&mut snap), "s");
    m.put("netsim.restore_s", median(&mut restore), "s");
    m.put(
        "netsim.snapshot_bytes",
        cycles.last().map_or(0, |c| c.bytes) as f64,
        "bytes",
    );
    for (name, value) in &trace.counters {
        m.put(*name, *value as f64, "count");
    }
    m.put("nodefinder.status_per_dial", plain.status_per_dial, "ratio");
    m.put("nodefinder.conn_attempts", plain.conns as f64, "count");
    m.put(
        "nodefinder.probe_failures",
        plain.probe_failures as f64,
        "count",
    );
    m.put("nodefinder.from_log_s", plain.from_log_s, "s");
    m.put("nodefinder.sanitize_s", plain.sanitize_s, "s");
    m.put("analysis.tables_s", plain.tables_s, "s");
    m.put("obs.trace_overhead", traced_s / plain_s, "ratio");
    let runq = plain.runq_wait_s + traced.runq_wait_s;
    let tele = telemetry(&meters, host::steal_s() - steal0, runq);
    println!("{{\"telemetry\": {}}}", tele.json());
    m.0.extend(tele.0);
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ref-crawl|join-5k|campaign> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        per_layer(&args, &mut ledger)
    } else {
        end_to_end(&args, &mut ledger)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0,
        ledger.attempted.max(1),
        ledger.failed,
        metrics.json()
    );
}
