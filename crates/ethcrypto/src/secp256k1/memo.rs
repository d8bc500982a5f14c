//! Deterministic memoization of pure public-key operations.
//!
//! A simulated network re-derives the same values constantly: every discv4
//! packet is signed by one of a handful of node keys and recovered once per
//! delivery, every RLPx handshake computes the same static-static ECDH
//! secret from both ends, and node IDs are recomputed from secret keys on
//! hot paths. All three are *pure functions*, so caching them cannot change
//! any observable output — a hit returns exactly the value the full
//! computation would, and a miss falls through to the real computation.
//!
//! Caches are thread-local (the simulator is single-threaded per world),
//! BTreeMap-backed (no hash-order nondeterminism), and bounded by FIFO
//! eviction so memory stays flat over arbitrarily long runs.
//!
//! Invariants that make each cache sound:
//! - **pubkey**: keyed by the exact secret scalar bytes; value is `d*G`.
//! - **ECDH**: `a*B` and `b*A` are the same point, so the shared x
//!   coordinate is keyed by the *unordered* pair of public keys; either
//!   side's computation populates it for both.
//! - **signature → signer**: populated only at signing time with the
//!   signer's public key. ECDSA recovery of a well-formed signature over
//!   the digest it was produced for returns the signer's key by
//!   construction of the recovery id, so a hit on the exact
//!   `(digest, r‖s‖v)` bytes is guaranteed to equal what `recover` would
//!   compute.

use super::point::Affine;
use crate::u256::U256;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};

/// A bounded map with FIFO eviction (insertion order, not LRU, so lookup
/// never mutates and the structure stays allocation-light).
pub(crate) struct FifoCache<K: Ord + Clone, V> {
    map: BTreeMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Ord + Clone, V: Clone> FifoCache<K, V> {
    pub(crate) fn new(cap: usize) -> FifoCache<K, V> {
        FifoCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    pub(crate) fn get(&self, k: &K) -> Option<V> {
        self.map.get(k).cloned()
    }

    pub(crate) fn insert(&mut self, k: K, v: V) {
        if self.map.insert(k.clone(), v).is_none() {
            self.order.push_back(k);
            if self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// Canonical unordered (pk, pk) cache key; see [`ecdh_key`].
type EcdhPair = ([u8; 64], [u8; 64]);
/// (digest, r‖s‖v) cache key.
type SigKey = ([u8; 32], [u8; 65]);

// Capacity sizing: each cache must be large enough that an entry survives
// from the operation that populates it to the operation that reads it back
// — under FIFO eviction that means the cap must exceed the number of
// *inserts* that can land in between. The signature cache is populated at
// signing time and read at delivery, so its survival window is one network
// latency's worth of signed packets: at 250,000 hosts the simulator signs
// tens of thousands of packets per 300 simulated ms, and a 16k cap meant
// every entry was evicted before its datagram arrived — recovery paid the
// full scalar-mul at exactly the scales where it mattered most. The pubkey
// cache is keyed by signing secret and hit once per signature, so it wants
// one slot per live host key. Worst-case retained memory across all three
// is ~100 MB, a rounding error against the per-host budget of the worlds
// that need them.

/// One slot per live signing key: ≥ the largest world's host count.
const PUBKEY_CACHE_CAP: usize = 1 << 19;
/// Static-static pairs must survive from a pair's *first* handshake to
/// its redials minutes later — the cap has to cover every distinct peer
/// pair a large world forms, not just one round trip's ephemerals.
const ECDH_CACHE_CAP: usize = 1 << 19;
/// Signed-packet survival window: signatures produced between a packet's
/// signing and its delivery, with headroom for the 250k-host join storm.
const SIG_CACHE_CAP: usize = 1 << 18;

thread_local! {
    /// secret scalar bytes -> public key point.
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static PUBKEY: RefCell<FifoCache<[u8; 32], Affine>> =
        RefCell::new(FifoCache::new(PUBKEY_CACHE_CAP));
    /// unordered (pk, pk) pair -> ECDH shared x coordinate.
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static ECDH: RefCell<FifoCache<EcdhPair, [u8; 32]>> =
        RefCell::new(FifoCache::new(ECDH_CACHE_CAP));
    /// (digest, r‖s‖v) -> signer public key point.
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static SIG: RefCell<FifoCache<SigKey, Affine>> =
        RefCell::new(FifoCache::new(SIG_CACHE_CAP));
    /// Work done on this thread; see [`WorkCounters`].
    // detlint: allow(R8) -- deterministic op counts: read by tests and benches, never by results
    static WORK: Cell<WorkCounters> = const { Cell::new(WorkCounters::ZERO) };
}

/// Deterministic counts of the public-key work done on the calling thread
/// since it started. Each count is a pure function of the calls made, so
/// two runs of the same workload agree exactly: a rise in cold
/// multiplications per operation is a structural regression, not noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    /// Variable-base multiplications `k·P` computed (ECDH memo misses,
    /// and one per `recover` miss or `verify`).
    pub var_base_muls: u64,
    /// Generator multiplications `k·G` computed (pubkey memo misses,
    /// signing nonces, and one per `recover` miss or `verify`).
    pub generator_muls: u64,
    /// Public keys served from the pubkey memo.
    pub pubkey_hits: u64,
    /// Shared secrets served from the ECDH memo.
    pub ecdh_hits: u64,
    /// Signers served from the signature memo.
    pub sig_hits: u64,
}

impl WorkCounters {
    const ZERO: WorkCounters = WorkCounters {
        var_base_muls: 0,
        generator_muls: 0,
        pubkey_hits: 0,
        ecdh_hits: 0,
        sig_hits: 0,
    };
}

/// The calling thread's [`WorkCounters`].
pub fn work_counters() -> WorkCounters {
    WORK.with(Cell::get)
}

/// Apply `f` to the calling thread's counters.
pub(crate) fn count(f: impl FnOnce(&mut WorkCounters)) {
    WORK.with(|w| {
        let mut c = w.get();
        f(&mut c);
        w.set(c);
    });
}

pub(crate) fn pubkey_get(scalar: &[u8; 32]) -> Option<Affine> {
    let hit = PUBKEY.with(|c| c.borrow().get(scalar));
    if hit.is_some() {
        count(|c| c.pubkey_hits += 1);
    }
    hit
}

pub(crate) fn pubkey_put(scalar: [u8; 32], point: Affine) {
    PUBKEY.with(|c| c.borrow_mut().insert(scalar, point));
}

/// `scalar * G` through the pubkey cache.
pub(crate) fn public_point(scalar: &U256) -> Affine {
    let bytes = scalar.to_be_bytes();
    if let Some(p) = pubkey_get(&bytes) {
        return p;
    }
    let p = super::point::scalar_mul_generator(scalar);
    pubkey_put(bytes, p);
    p
}

/// Canonical unordered key for an ECDH pair.
pub(crate) fn ecdh_key(a: [u8; 64], b: [u8; 64]) -> EcdhPair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

pub(crate) fn ecdh_get(key: &EcdhPair) -> Option<[u8; 32]> {
    let hit = ECDH.with(|c| c.borrow().get(key));
    if hit.is_some() {
        count(|c| c.ecdh_hits += 1);
    }
    hit
}

pub(crate) fn ecdh_put(key: EcdhPair, shared: [u8; 32]) {
    ECDH.with(|c| c.borrow_mut().insert(key, shared));
}

pub(crate) fn sig_get(digest: &[u8; 32], sig: &[u8; 65]) -> Option<Affine> {
    let hit = SIG.with(|c| c.borrow().get(&(*digest, *sig)));
    if hit.is_some() {
        count(|c| c.sig_hits += 1);
    }
    hit
}

pub(crate) fn sig_put(digest: [u8; 32], sig: [u8; 65], signer: Affine) {
    SIG.with(|c| c.borrow_mut().insert((digest, sig), signer));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_evicts_oldest_first() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(3);
        for i in 0..5u32 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&4), Some(40));
    }

    #[test]
    fn fifo_reinsert_does_not_duplicate_order() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(2);
        c.insert(1, 1);
        c.insert(1, 2); // overwrite, not a new FIFO slot
        c.insert(2, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(2));
        c.insert(3, 3); // evicts 1 (oldest), not 2
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(2));
    }

    #[test]
    fn ecdh_key_is_symmetric() {
        let a = [1u8; 64];
        let b = [2u8; 64];
        assert_eq!(ecdh_key(a, b), ecdh_key(b, a));
    }
}
