//! Layer unit-cost probes for the traced pass: a fixed corpus of distinct
//! keys through the public calls of `ethcrypto`, `rlpx`, `discv4` and
//! `kad`. Each probe runs on a fresh thread, so a cold probe really
//! misses the thread-local crypto memos.
//!
//! Each probe splits its operations into batches and reports the fastest
//! batch's cost per operation: the minimum is the estimate least moved by
//! a slow burst of the machine.

use crate::pass::on_fresh_thread;
use crate::timing;
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::{recover, RecoverableSignature, SecretKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::net::Ipv4Addr;

/// Batches per probe.
const BATCHES: usize = 5;

/// The `i`-th key of the fixed corpus: distinct for every `i`.
fn corpus_key(i: u64) -> SecretKey {
    let mut bytes = [0u8; 32];
    let mut x = i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for chunk in bytes.chunks_mut(8) {
        x ^= x >> 29;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 32;
        chunk.copy_from_slice(&x.to_be_bytes());
    }
    bytes[0] &= 0x7F;
    SecretKey::from_bytes(&bytes).expect("corpus key is a valid scalar")
}

/// The `i`-th 32-byte digest of the fixed corpus.
fn corpus_digest(i: u64) -> [u8; 32] {
    ethcrypto::keccak256(&i.to_be_bytes())
}

/// Fastest per-operation time over [`BATCHES`] batches of `per_batch`
/// operations, in microseconds. `op(i)` runs operation `i` of the
/// corpus (distinct across batches).
fn per_op_us(per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    (0..BATCHES)
        .map(|b| {
            let ((), s) = timing::timed(|| {
                for i in b * per_batch..(b + 1) * per_batch {
                    op(i);
                }
            });
            s * 1e6 / per_batch as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Every probe, as `(metric name, value)`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // d·G for keys never seen on this thread.
    out.push((
        "ethcrypto.pubkey_us",
        on_fresh_thread(|| {
            per_op_us(80, |i| {
                black_box(corpus_key(i as u64).public_key());
            })
        }),
    ));

    // Signing with a warm key, as a host signs its packets; then
    // recovering those signatures on the signing thread (memo hit).
    let (sign_us, recover_hit_us, signed) = on_fresh_thread(|| {
        let key = corpus_key(10_000);
        black_box(key.public_key());
        let n = 100 * BATCHES;
        let mut signed = Vec::with_capacity(n);
        let sign_us = per_op_us(100, |i| {
            let d = corpus_digest(i as u64);
            signed.push((d, key.sign_recoverable(&d).to_bytes()));
        });
        let recover_hit_us = per_op_us(100, |i| {
            let (d, sig) = &signed[i];
            let sig = RecoverableSignature::from_bytes(sig).expect("own signature parses");
            black_box(recover(d, &sig).expect("own signature recovers"));
        });
        (sign_us, recover_hit_us, signed)
    });
    out.push(("ethcrypto.sign_us", sign_us));
    out.push(("ethcrypto.recover_hit_us", recover_hit_us));

    // The same signatures recovered on a thread that never saw them.
    out.push((
        "ethcrypto.recover_cold_us",
        on_fresh_thread(move || {
            per_op_us(40, |i| {
                let (d, sig) = &signed[i];
                let sig = RecoverableSignature::from_bytes(sig).expect("signature parses");
                black_box(recover(d, &sig).expect("signature recovers"));
            })
        }),
    ));

    // ECDH against peers never paired on this thread (own public keys
    // warmed first, so only the shared-secret multiplication is timed).
    out.push((
        "ethcrypto.ecdh_cold_us",
        on_fresh_thread(|| {
            let n = 40 * BATCHES;
            let pairs: Vec<_> = (0..n as u64)
                .map(|i| {
                    let own = corpus_key(20_000 + i);
                    black_box(own.public_key());
                    (own, corpus_key(30_000 + i).public_key())
                })
                .collect();
            per_op_us(40, |i| {
                let (own, peer) = &pairs[i];
                black_box(own.ecdh(peer).expect("corpus keys agree"));
            })
        }),
    ));

    // keccak256 over 1 KiB messages, in MB/s.
    out.push((
        "ethcrypto.keccak_mb_s",
        on_fresh_thread(|| {
            let msg = [0x5Au8; 1024];
            let us = per_op_us(2_000, |i| {
                let mut m = msg;
                m[..8].copy_from_slice(&(i as u64).to_le_bytes());
                black_box(ethcrypto::keccak256(&m));
            });
            1024.0 / us
        }),
    ));

    out.push(("rlpx.handshake_us", on_fresh_thread(handshake_us)));

    let (encode_us, decode_us) = on_fresh_thread(discv4_us);
    out.push(("discv4.encode_us", encode_us));
    out.push(("discv4.decode_us", decode_us));

    out.push(("kad.closest_us", on_fresh_thread(kad_closest_us)));
    out
}

/// A full RLPx handshake between two warm static keys with fresh
/// ephemeral keys: initiator `write_auth`, recipient `read_auth`,
/// initiator `read_ack`, and both sides' `secrets`.
fn handshake_us() -> f64 {
    use rlpx::{Handshake, Role};
    let (a, b) = (corpus_key(40_000), corpus_key(40_001));
    let b_id = NodeId::from_secret_key(&b);
    black_box(a.public_key());
    let mut rng = StdRng::seed_from_u64(7);
    per_op_us(10, |_| {
        let mut init = Handshake::new(Role::Initiator, a, &mut rng);
        let mut resp = Handshake::new(Role::Recipient, b, &mut rng);
        let auth = init.write_auth(&mut rng, &b_id).expect("auth");
        let ack = resp.read_auth(&mut rng, &auth).expect("ack");
        init.read_ack(&ack).expect("ack accepted");
        black_box((
            init.secrets().expect("secrets"),
            resp.secrets().expect("secrets"),
        ));
    })
}

/// `discv4::encode_packet` (which signs) and `decode_packet` of the
/// same datagrams on the same thread, as the simulator delivers them.
fn discv4_us() -> (f64, f64) {
    use discv4::{decode_packet, encode_packet, Packet};
    let key = corpus_key(50_000);
    black_box(key.public_key());
    let ep = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303);
    let mut datagrams = Vec::new();
    let encode_us = per_op_us(100, |i| {
        let ping = Packet::Ping {
            version: 4,
            from: ep,
            to: ep,
            expiration: 1_600_000_000 + i as u64,
        };
        datagrams.push(encode_packet(&key, &ping).0);
    });
    let decode_us = per_op_us(100, |i| {
        black_box(decode_packet(&datagrams[i]).expect("own datagram decodes"));
    });
    (encode_us, decode_us)
}

/// `kad::RoutingTable::closest` (k = 16) on a table offered 5,000
/// distinct nodes.
fn kad_closest_us() -> f64 {
    let local = NodeId([0x11; 64]);
    let mut table = kad::RoutingTable::new(local, kad::Metric::GethLog2);
    let id = |i: u64| {
        let mut raw = [0u8; 64];
        for (j, chunk) in raw.chunks_mut(32).enumerate() {
            chunk.copy_from_slice(&ethcrypto::keccak256(&(i * 2 + j as u64).to_be_bytes()));
        }
        NodeId(raw)
    };
    for i in 0..5_000u64 {
        let ep = Endpoint::new(Ipv4Addr::from(0x0A00_0000 + i as u32), 30303);
        table.add(NodeRecord::new(id(i), ep), i);
    }
    per_op_us(400, |i| {
        let target = ethcrypto::keccak256(&(1_000_000 + i as u64).to_be_bytes());
        black_box(table.closest(&target, 16));
    })
}
