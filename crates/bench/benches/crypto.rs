//! Criterion benches for the from-scratch crypto substrate.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ethcrypto::aes::AesCtr;
use ethcrypto::secp256k1::{
    double_scalar_mul, recover, scalar_mul, scalar_mul_generator, Affine, Fe, PublicKey,
    RecoverableSignature, SecretKey,
};
use ethcrypto::{ecies, keccak256, sha256, U256};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    let data = vec![0xabu8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("keccak256_1k", |b| b.iter(|| keccak256(black_box(&data))));
    group.bench_function("sha256_1k", |b| b.iter(|| sha256(black_box(&data))));
    group.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes");
    let key = [0x42u8; 32];
    let iv = [0x24u8; 16];
    let data = vec![0u8; 4096];
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("ctr_4k", |b| {
        b.iter(|| {
            let mut ctr = AesCtr::new(&key, &iv);
            ctr.process(black_box(&data))
        })
    });
    group.finish();
}

/// The `i`-th key of a fixed corpus of distinct, full-length secret keys.
fn corpus_key(i: u64) -> SecretKey {
    let mut bytes = keccak256(&i.to_be_bytes());
    bytes[0] &= 0x7F; // below n, and as long as a random key
    SecretKey::from_bytes(&bytes).unwrap()
}

/// The `i`-th corpus scalar, as a raw integer below the curve order.
fn corpus_scalar(i: u64) -> U256 {
    U256::from_be_bytes(&corpus_key(i).to_bytes())
}

/// Timed calls per bench: the stand-in criterion makes one untimed
/// warm-up call and then `SAMPLES` timed ones.
const SAMPLES: usize = 20;
/// Corpus entries a bench needs so that no call repeats an input.
const CORPUS: usize = SAMPLES + 1;

/// The group arithmetic under every public-key operation, called
/// directly: pure functions of their inputs, untouched by the memos.
fn bench_secp_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("secp256k1_kernel");
    group.sample_size(SAMPLES);
    let scalars: Vec<U256> = (0..64).map(corpus_scalar).collect();
    let points: Vec<Affine> = (0..64)
        .map(|i| *corpus_key(1_000 + i).public_key().point())
        .collect();
    let mut i = 0;
    group.bench_function("scalar_mul", |b| {
        b.iter(|| {
            i = (i + 1) % 64;
            scalar_mul(black_box(&scalars[i]), black_box(&points[i]))
        })
    });
    group.bench_function("scalar_mul_generator", |b| {
        b.iter(|| {
            i = (i + 1) % 64;
            scalar_mul_generator(black_box(&scalars[i]))
        })
    });
    group.bench_function("double_scalar_mul", |b| {
        b.iter(|| {
            i = (i + 1) % 64;
            double_scalar_mul(
                black_box(&scalars[i]),
                black_box(&scalars[63 - i]),
                black_box(&points[i]),
            )
        })
    });
    group.finish();

    // Field operations take nanoseconds, too few for one timed call each:
    // every timed call runs the operation over all 64 corpus elements.
    let mut group = c.benchmark_group("secp256k1_field");
    group.sample_size(SAMPLES);
    group.throughput(Throughput::Elements(64));
    let elems: Vec<Fe> = points
        .iter()
        .map(|p| match p {
            Affine::Point { x, .. } => *x,
            Affine::Infinity => Fe::ONE,
        })
        .collect();
    group.bench_function("fe_mul_x64", |b| {
        b.iter(|| {
            let mut acc = Fe::ONE;
            for e in black_box(&elems) {
                acc = acc.mul(e);
            }
            acc
        })
    });
    group.bench_function("fe_inv_x64", |b| {
        b.iter(|| {
            for e in black_box(&elems) {
                black_box(e.inv());
            }
        })
    });
    group.finish();
}

/// The public calls, each on inputs this thread has never seen, so every
/// timed call misses the thread-local memos (`sign` memoizes its
/// signature and `ecdh` its shared secret: repeating an input would time
/// a cache lookup).
fn bench_secp(c: &mut Criterion) {
    let mut group = c.benchmark_group("secp256k1");
    group.sample_size(SAMPLES);
    let sk = SecretKey::from_bytes(&[7u8; 32]).unwrap();
    let digest = keccak256(b"bench digest");
    group.bench_function("sign", |b| {
        b.iter(|| sk.sign_recoverable(black_box(&digest)))
    });
    // Sign on another thread, whose signature memo this one cannot see.
    let signed: Vec<([u8; 32], RecoverableSignature)> = std::thread::spawn(|| {
        (0..CORPUS as u64)
            .map(|i| {
                let d = keccak256(&i.to_be_bytes());
                (d, corpus_key(2_000 + i).sign_recoverable(&d))
            })
            .collect()
    })
    .join()
    .unwrap();
    let mut next = signed.iter();
    group.bench_function("recover_cold", |b| {
        b.iter(|| {
            let (d, sig) = next.next().unwrap();
            recover(black_box(d), black_box(sig)).unwrap()
        })
    });
    // Own public keys warmed, so only the shared-secret multiplication
    // is timed.
    let pairs: Vec<(SecretKey, PublicKey)> = (0..CORPUS as u64)
        .map(|i| {
            let own = corpus_key(3_000 + i);
            black_box(own.public_key());
            (own, corpus_key(4_000 + i).public_key())
        })
        .collect();
    let mut next = pairs.iter();
    group.bench_function("ecdh_cold", |b| {
        b.iter(|| {
            let (own, peer) = next.next().unwrap();
            own.ecdh(black_box(peer)).unwrap()
        })
    });
    group.finish();
}

fn bench_ecies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecies");
    group.sample_size(SAMPLES);
    let sk = SecretKey::from_bytes(&[7u8; 32]).unwrap();
    let msg = vec![0x55u8; 194]; // auth-body-sized
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("encrypt_auth_sized", |b| {
        b.iter(|| ecies::encrypt(&mut rng, &sk.public_key(), black_box(&msg), b"").unwrap())
    });
    // Encrypted on another thread, so no decryption finds its shared
    // secret in this thread's ECDH memo.
    let sk_pub = sk.public_key();
    let cts: Vec<Vec<u8>> = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(2);
        (0..CORPUS)
            .map(|_| ecies::encrypt(&mut rng, &sk_pub, &msg, b"").unwrap())
            .collect()
    })
    .join()
    .unwrap();
    let mut next = cts.iter();
    group.bench_function("decrypt_auth_sized", |b| {
        b.iter(|| ecies::decrypt(&sk, black_box(next.next().unwrap()), b"").unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hashes,
    bench_aes,
    bench_secp_kernels,
    bench_secp,
    bench_ecies
);
criterion_main!(benches);
