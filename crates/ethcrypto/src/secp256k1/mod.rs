//! secp256k1 elliptic-curve operations: keys, ECDSA with public-key
//! recovery, and ECDH — the identity and authentication layer of RLPx.
//!
//! DEVp2p node IDs *are* secp256k1 public keys (the 64-byte uncompressed
//! `x || y` form), discv4 packets are ECDSA-signed with recoverable
//! signatures so receivers learn the sender's identity from the packet
//! itself, and the RLPx handshake derives its session keys from an ECDH
//! shared secret.

pub mod field;
pub mod point;

mod ecdsa;
mod memo;
mod scalar;

pub use ecdsa::{recover, RecoverableSignature, Signature};
pub use field::Fe;
pub use memo::{work_counters, WorkCounters};
pub use point::{double_scalar_mul, scalar_mul, scalar_mul_generator, Affine};

use crate::u256::U256;
use crate::CryptoError;

/// A secp256k1 secret key (scalar in `[1, n-1]`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey {
    pub(crate) scalar: U256,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // never print key material
        write!(f, "SecretKey(..)")
    }
}

/// A secp256k1 public key (a non-identity curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey {
    pub(crate) point: Affine,
}

impl SecretKey {
    /// Parse a 32-byte big-endian scalar; rejects 0 and values >= n.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<SecretKey, CryptoError> {
        let scalar = U256::from_be_bytes(bytes);
        if scalar.is_zero() || scalar.ge(&point::N) {
            return Err(CryptoError::InvalidSecretKey);
        }
        Ok(SecretKey { scalar })
    }

    /// Generate a fresh random key.
    pub fn random<R: rand::Rng + ?Sized>(rng: &mut R) -> SecretKey {
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes[..]);
            if let Ok(sk) = SecretKey::from_bytes(&bytes) {
                return sk;
            }
        }
    }

    /// Serialize the scalar as 32 big-endian bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.scalar.to_be_bytes()
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey {
            point: memo::public_point(&self.scalar),
        }
    }

    /// ECDSA-sign a 32-byte digest, producing a recoverable signature.
    ///
    /// The nonce is derived deterministically (RFC 6979 style, HMAC-SHA256)
    /// so signing is reproducible and never leaks the key through a bad RNG.
    pub fn sign_recoverable(&self, digest: &[u8; 32]) -> RecoverableSignature {
        ecdsa::sign(self, digest)
    }

    /// ECDH: the x coordinate of `self * peer_point`, as used by RLPx
    /// (NIST-style "shared secret = x coordinate" agreement).
    pub fn ecdh(&self, peer: &PublicKey) -> Result<[u8; 32], CryptoError> {
        // `a*B == b*A`, so the shared secret is a pure function of the
        // unordered public-key pair: whichever side computes it first
        // populates the cache for the other.
        let own_xy = memo::public_point(&self.scalar)
            .to_xy_bytes()
            .ok_or(CryptoError::InvalidSecretKey)?;
        let peer_xy = peer
            .point
            .to_xy_bytes()
            .ok_or(CryptoError::InvalidPublicKey)?;
        let key = memo::ecdh_key(own_xy, peer_xy);
        if let Some(x) = memo::ecdh_get(&key) {
            return Ok(x);
        }
        match point::scalar_mul(&self.scalar, &peer.point) {
            Affine::Infinity => Err(CryptoError::InvalidPublicKey),
            Affine::Point { x, .. } => {
                let xb = x.to_be_bytes();
                memo::ecdh_put(key, xb);
                Ok(xb)
            }
        }
    }
}

impl PublicKey {
    /// Parse the 64-byte uncompressed `x || y` form (DEVp2p node ID form).
    pub fn from_xy_bytes(bytes: &[u8; 64]) -> Result<PublicKey, CryptoError> {
        let point = Affine::from_xy_bytes(bytes).ok_or(CryptoError::InvalidPublicKey)?;
        if point.is_infinity() {
            return Err(CryptoError::InvalidPublicKey);
        }
        Ok(PublicKey { point })
    }

    /// Serialize to the 64-byte uncompressed `x || y` form.
    pub fn to_xy_bytes(&self) -> [u8; 64] {
        self.point
            .to_xy_bytes()
            .expect("public keys are finite points")
    }

    /// Verify a (non-recoverable) signature over a digest.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        ecdsa::verify(self, digest, sig)
    }

    /// The underlying curve point.
    pub fn point(&self) -> &Affine {
        &self.point
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secret_key_rejects_zero_and_order() {
        assert!(SecretKey::from_bytes(&[0u8; 32]).is_err());
        let n_bytes = point::N.to_be_bytes();
        assert!(SecretKey::from_bytes(&n_bytes).is_err());
        let mut nm1 = point::N;
        nm1 = nm1.wrapping_sub(&U256::ONE);
        assert!(SecretKey::from_bytes(&nm1.to_be_bytes()).is_ok());
    }

    #[test]
    fn public_key_roundtrip() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..8 {
            let sk = SecretKey::random(&mut rng);
            let pk = sk.public_key();
            let bytes = pk.to_xy_bytes();
            assert_eq!(PublicKey::from_xy_bytes(&bytes).unwrap(), pk);
        }
    }

    /// Run `f` on a freshly spawned thread, whose memos are empty; returns
    /// its result and the variable-base multiplications it computed.
    pub(crate) fn on_fresh_thread<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> (T, u64) {
        std::thread::spawn(|| {
            let out = f();
            (out, work_counters().var_base_muls)
        })
        .join()
        .unwrap()
    }

    #[test]
    fn ecdh_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = SecretKey::random(&mut rng);
        let b = SecretKey::random(&mut rng);
        let s1 = a.ecdh(&b.public_key()).unwrap();
        // The second side runs cold: on this thread it would be a memo hit.
        let a_pub = a.public_key();
        let (s2, var_base) = on_fresh_thread(move || b.ecdh(&a_pub).unwrap());
        assert_eq!(var_base, 1);
        assert_eq!(s1, s2);
        let c = SecretKey::random(&mut rng);
        assert_ne!(s1, c.ecdh(&b.public_key()).unwrap());
    }

    #[test]
    fn known_public_key() {
        // secret key 1 -> public key is the generator itself
        let mut one = [0u8; 32];
        one[31] = 1;
        let sk = SecretKey::from_bytes(&one).unwrap();
        assert_eq!(sk.public_key().point, Affine::generator());
    }
}
