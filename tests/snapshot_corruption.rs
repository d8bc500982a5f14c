//! Corruption property test over real snapshot images: a damaged image
//! must restore cleanly (`Ok`, when the damage lands in a value field)
//! or be rejected (`Err`) — never panic, and never allocate by a corrupt
//! count (the `obs::snap` count rule bounds every container by the bytes
//! left).
//!
//! The images are the `resume_determinism` crawl world at T with one
//! shard: its `PSNP` engine image, which embeds an `ETHN` section per
//! population host and the crawler's `NFND` section, and its `OBSS`
//! recorder image. Each is damaged by seeded truncations, single-bit
//! flips, and 8-byte overwrites with values in `[2^32, 2^63]` (the range
//! that turns a length or count prefix into an impossible one).

mod resume_world;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resume_world::{build_crawl_world, images_at_t};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per mutation kind per image region. Sized so the whole test
/// stays within a few seconds: each engine case decodes a ~2 MB image.
const CASES: usize = 20;

#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    FlipBit(usize, u8),
    Overwrite(usize, u64),
}

impl Mutation {
    fn apply(self, image: &[u8]) -> Vec<u8> {
        let mut out = image.to_vec();
        match self {
            Mutation::Truncate(len) => out.truncate(len),
            Mutation::FlipBit(pos, bit) => out[pos] ^= 1 << bit,
            Mutation::Overwrite(pos, v) => out[pos..pos + 8].copy_from_slice(&v.to_le_bytes()),
        }
        out
    }
}

/// `CASES` of each kind aimed at `region` of an image, from `seed`.
fn mutations(region: Range<usize>, seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..CASES {
        out.push(Mutation::Truncate(rng.gen_range(region.clone())));
        out.push(Mutation::FlipBit(
            rng.gen_range(region.clone()),
            rng.gen_range(0..8),
        ));
        out.push(Mutation::Overwrite(
            rng.gen_range(region.start..region.end - 8),
            rng.gen_range(1u64 << 32..=1 << 63),
        ));
    }
    out
}

/// Offset of the first occurrence of `needle` at or after `from`.
fn find(image: &[u8], from: usize, needle: &[u8]) -> usize {
    from + image[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("section present in the image")
}

/// Run `restore` on every mutation of every region of `image`; a panic
/// fails the test naming the mutation that caused it.
fn assert_never_panics(
    image: &[u8],
    regions: &[Range<usize>],
    mut restore: impl FnMut(&[u8]) -> bool,
) {
    for (i, region) in regions.iter().enumerate() {
        let mut rejected = 0;
        for m in mutations(region.clone(), 0x5EED_0000 + i as u64) {
            let bad = m.apply(image);
            match catch_unwind(AssertUnwindSafe(|| restore(&bad))) {
                Ok(ok) => rejected += usize::from(!ok),
                Err(_) => panic!("restore panicked on {m:?}"),
            }
        }
        // Every truncation must be caught, whatever else slips through
        // as a plausible value.
        assert!(
            rejected >= CASES,
            "only {rejected} damaged images rejected in {region:?}"
        );
    }
}

#[test]
fn damaged_images_restore_or_fail_but_never_panic() {
    let images = images_at_t(1);
    assert!(
        images.events > 1_000,
        "world too quiet at T to be a real image"
    );
    // Uniform positions would mostly land in the crawl log's JSON text,
    // so the engine image is cut into regions with equal cases each: the
    // engine's own state, the population's ETHN sections, the crawler's
    // NFND section up to its crawl log, and the log.
    let sim = &images.sim;
    let ethn = find(sim, 0, b"ETHN");
    let nfnd = find(sim, ethn, b"NFND");
    let log = find(sim, nfnd, b"{\"type\"");
    // One shell serves every case: a rejected image leaves it (nearly)
    // untouched, and an accepted one is overwritten by the next restore.
    let (mut shell, _) = build_crawl_world(1);
    let regions = [0..ethn, ethn..nfnd, nfnd..log, log..sim.len()];
    assert_never_panics(sim, &regions, |bad| shell.sim.restore(bad).is_ok());
    let recorder = obs::Recorder::new();
    let obs = &images.obs;
    let halves = [0..obs.len() / 2, obs.len() / 2..obs.len()];
    assert_never_panics(obs, &halves, |bad| recorder.restore_state(bad).is_ok());
}
