//! Fast modular inversion for odd moduli via batched division steps
//! (Bernstein–Yang style "safegcd", variable-time variant).
//!
//! The binary extended GCD in [`crate::u256::U256::inv_mod`]'s original
//! form walks one bit per iteration over full 256-bit values — ~5µs per
//! inverse, paid twice per ECDSA signature. The divstep formulation
//! processes 62 bits per outer iteration: the inner loop runs on single
//! 64-bit words and only its accumulated 2×2 transition matrix is applied
//! to the full-width values. A field inverse (`Fe::inv`) measured
//! 1.8–2.3 µs, the fastest of five loops of 20,000 calls each (release
//! build, shared 2-vCPU Xeon at 2.0 GHz under KVM), or about 55 field
//! multiplications at the ~0.035 µs of `Fe::mul` on the same box.
//! `cargo bench -p bench --bench crypto` reports both
//! (`secp256k1_field/fe_inv_x64`, `fe_mul_x64`).
//!
//! Values are held in a signed limb form: five limbs of 62 bits each,
//! little-endian, where limbs 0–3 are masked non-negative and limb 4
//! carries the sign. The transition matrices have entries bounded by
//! 2^62 in magnitude, so all products fit in i128 accumulators.

const M62: u64 = (1u64 << 62) - 1;

/// Negated multiplicative inverses modulo 2^8 of odd bytes:
/// `NEGINV256[(b >> 1) & 127] * b ≡ -1 (mod 256)` for odd `b`.
const NEGINV256: [u8; 128] = build_neginv256();

const fn build_neginv256() -> [u8; 128] {
    let mut table = [0u8; 128];
    let mut i = 0usize;
    while i < 128 {
        let b = (2 * i + 1) as u8;
        // Newton's iteration over 2-adics: x_{k+1} = x_k (2 - b x_k).
        let mut x = b; // correct mod 2^3 for odd b
        x = x.wrapping_mul(2u8.wrapping_sub(b.wrapping_mul(x)));
        x = x.wrapping_mul(2u8.wrapping_sub(b.wrapping_mul(x)));
        table[i] = x.wrapping_neg();
        i += 1;
    }
    table
}

/// A 302-bit signed value: limbs 0–3 are 62-bit non-negative, limb 4 is
/// signed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Signed62(pub [i64; 5]);

impl Signed62 {
    pub(crate) fn from_limbs64(v: &[u64; 4]) -> Signed62 {
        let (a, b, c, d) = (v[0], v[1], v[2], v[3]);
        Signed62([
            (a & M62) as i64,
            ((a >> 62 | b << 2) & M62) as i64,
            ((b >> 60 | c << 4) & M62) as i64,
            ((c >> 58 | d << 6) & M62) as i64,
            (d >> 56) as i64,
        ])
    }

    pub(crate) fn to_limbs64(self) -> [u64; 4] {
        let [a, b, c, d, e] = self.0.map(|l| l as u64);
        [
            a | b << 62,
            b >> 2 | c << 60,
            c >> 4 | d << 58,
            d >> 6 | e << 56,
        ]
    }

    fn is_zero(&self) -> bool {
        self.0 == [0; 5]
    }

    /// Sign word: 0 for non-negative, -1 for negative.
    fn sign(&self) -> i64 {
        self.0[4] >> 63
    }

    /// Compare against another value of the same representation (both must
    /// be normalized with limbs 0–3 in range); returns the sign of
    /// `self - other`.
    fn cmp_sub(&self, other: &Signed62) -> i64 {
        let mut borrow: i128 = 0;
        let mut top = 0i64;
        for i in 0..5 {
            let diff = self.0[i] as i128 - other.0[i] as i128 + borrow;
            if i < 4 {
                borrow = diff >> 62;
            } else {
                top = diff as i64;
            }
        }
        if top != 0 {
            top.signum()
        } else {
            0
        }
    }
}

/// 2×2 transition matrix accumulated over 62 division steps.
struct Trans {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Run 62 division steps on the low words of (f, g), returning the updated
/// eta and the transition matrix. `f0` must be odd.
fn divsteps_62_var(mut eta: i64, f0: u64, g0: u64) -> (i64, Trans) {
    let (mut u, mut v, mut q, mut r) = (1i64, 0i64, 0i64, 1i64);
    let mut f = f0 as i64;
    let mut g = g0 as i64;
    let mut i: i32 = 62;
    loop {
        // Strip trailing zero bits of g (bounded by the bits left).
        let zeros = ((g as u64) | (u64::MAX << i)).trailing_zeros() as i32;
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= zeros as i64;
        i -= zeros;
        if i == 0 {
            break;
        }
        // f and g are now both odd.
        if eta < 0 {
            eta = -eta;
            let (tf, tu, tv) = (f, u, v);
            f = g;
            g = -tf;
            u = q;
            v = r;
            q = -tu;
            r = -tv;
        }
        // Cancel up to min(eta + 1, i, 8) low bits of g against f.
        let limit = if eta + 1 > i as i64 {
            i
        } else {
            (eta + 1) as i32
        };
        let mask = ((u64::MAX >> (64 - limit)) & 255) as i64;
        let w =
            ((g as u64).wrapping_mul(NEGINV256[((f >> 1) & 127) as usize] as u64) as i64) & mask;
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    (eta, Trans { u, v, q, r })
}

/// `(f, g) = t * (f, g) / 2^62` (exact: the matrix is constructed so the
/// low 62 bits of both products vanish).
fn update_fg(f: &mut Signed62, g: &mut Signed62, t: &Trans) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let mut cf = u * f.0[0] as i128 + v * g.0[0] as i128;
    let mut cg = q * f.0[0] as i128 + r * g.0[0] as i128;
    debug_assert_eq!((cf as u64) & M62, 0);
    debug_assert_eq!((cg as u64) & M62, 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..5 {
        cf += u * f.0[i] as i128 + v * g.0[i] as i128;
        cg += q * f.0[i] as i128 + r * g.0[i] as i128;
        if i < 4 {
            f.0[i - 1] = (cf as i64) & M62 as i64;
            g.0[i - 1] = (cg as i64) & M62 as i64;
            cf >>= 62;
            cg >>= 62;
        } else {
            f.0[3] = (cf as i64) & M62 as i64;
            g.0[3] = (cg as i64) & M62 as i64;
            f.0[4] = (cf >> 62) as i64;
            g.0[4] = (cg >> 62) as i64;
        }
    }
}

/// `(d, e) = t * (d, e) / 2^62 mod m`. Inputs and outputs lie in the
/// range `(-2m, m)`; `m_inv62` is `m^{-1} mod 2^62`.
fn update_de(d: &mut Signed62, e: &mut Signed62, t: &Trans, m: &Signed62, m_inv62: u64) {
    let (u, v, q, r) = (t.u, t.v, t.q, t.r);
    let sd = d.sign();
    let se = e.sign();
    // Sign compensation keeps intermediate values in range.
    let mut md = (u & sd) + (v & se);
    let mut me = (q & sd) + (r & se);
    let mut cd = u as i128 * d.0[0] as i128 + v as i128 * e.0[0] as i128;
    let mut ce = q as i128 * d.0[0] as i128 + r as i128 * e.0[0] as i128;
    // Choose multiples of m that cancel the low 62 bits.
    md -= ((m_inv62.wrapping_mul(cd as u64).wrapping_add(md as u64)) & M62) as i64;
    me -= ((m_inv62.wrapping_mul(ce as u64).wrapping_add(me as u64)) & M62) as i64;
    cd += m.0[0] as i128 * md as i128;
    ce += m.0[0] as i128 * me as i128;
    debug_assert_eq!((cd as u64) & M62, 0);
    debug_assert_eq!((ce as u64) & M62, 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += u as i128 * d.0[i] as i128 + v as i128 * e.0[i] as i128;
        ce += q as i128 * d.0[i] as i128 + r as i128 * e.0[i] as i128;
        cd += m.0[i] as i128 * md as i128;
        ce += m.0[i] as i128 * me as i128;
        if i < 4 {
            d.0[i - 1] = (cd as i64) & M62 as i64;
            e.0[i - 1] = (ce as i64) & M62 as i64;
            cd >>= 62;
            ce >>= 62;
        } else {
            d.0[3] = (cd as i64) & M62 as i64;
            e.0[3] = (ce as i64) & M62 as i64;
            d.0[4] = (cd >> 62) as i64;
            e.0[4] = (ce >> 62) as i64;
        }
    }
}

/// Normalize `d` from `(-2m, m)` (optionally negated when the final `f`
/// was negative) into `[0, m)`.
fn normalize(mut d: Signed62, negate: bool, m: &Signed62) -> Signed62 {
    if negate {
        let mut carry: i128 = 0;
        for i in 0..5 {
            let val = -(d.0[i] as i128) + carry;
            if i < 4 {
                d.0[i] = (val as i64) & M62 as i64;
                carry = val >> 62;
            } else {
                d.0[i] = val as i64;
            }
        }
    }
    // Now in (-m, 2m); bring into [0, m) with at most two adjustments.
    while d.sign() != 0 {
        let mut carry: i128 = 0;
        for i in 0..5 {
            let val = d.0[i] as i128 + m.0[i] as i128 + carry;
            if i < 4 {
                d.0[i] = (val as i64) & M62 as i64;
                carry = val >> 62;
            } else {
                d.0[i] = val as i64;
            }
        }
    }
    while d.cmp_sub(m) >= 0 {
        let mut borrow: i128 = 0;
        for i in 0..5 {
            let val = d.0[i] as i128 - m.0[i] as i128 + borrow;
            if i < 4 {
                d.0[i] = (val as i64) & M62 as i64;
                borrow = val >> 62;
            } else {
                d.0[i] = val as i64;
            }
        }
    }
    d
}

/// `m^{-1} mod 2^62` for odd `m` (Newton's iteration over the 2-adics).
fn mod_inv62(m0: u64) -> u64 {
    let mut x = m0; // correct mod 2^3
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
    }
    x & M62
}

/// Modular inverse of `x` modulo odd `m`, or `None` when `gcd(x, m) != 1`.
/// Both are given (and returned) as little-endian 64-bit limbs; `x` need
/// not be reduced modulo `m`.
pub(crate) fn inv_mod_odd(x: &[u64; 4], m: &[u64; 4]) -> Option<[u64; 4]> {
    debug_assert_eq!(m[0] & 1, 1, "modulus must be odd");
    let m62 = Signed62::from_limbs64(m);
    let mut f = m62;
    let mut g = Signed62::from_limbs64(x);
    let mut d = Signed62([0; 5]);
    let mut e = Signed62([1, 0, 0, 0, 0]);
    let mut eta: i64 = -1;
    let m_inv62 = mod_inv62(m[0]);
    // 741 divsteps suffice for 256-bit inputs; 12 × 62 = 744.
    for _ in 0..12 {
        let (new_eta, t) = divsteps_62_var(eta, f.0[0] as u64, g.0[0] as u64);
        eta = new_eta;
        update_de(&mut d, &mut e, &t, &m62, m_inv62);
        update_fg(&mut f, &mut g, &t);
        if g.is_zero() {
            break;
        }
    }
    if !g.is_zero() {
        // Out of iterations without convergence — cannot happen for
        // 256-bit inputs, but fail safe rather than return a wrong value.
        return None;
    }
    // f holds ±gcd(x, m).
    let plus_one = Signed62([1, 0, 0, 0, 0]);
    let minus_one = Signed62([M62 as i64, M62 as i64, M62 as i64, M62 as i64, -1]);
    if f != plus_one && f != minus_one {
        return None;
    }
    let inv = normalize(d, f == minus_one, &m62);
    Some(inv.to_limbs64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::u256::U256;

    /// The original binary extended GCD, kept as a differential oracle.
    fn inv_mod_xgcd(a: &U256, m: &U256) -> Option<U256> {
        if a.is_zero() {
            return None;
        }
        let mut a = *a;
        let mut b = *m;
        let mut x = U256::ONE;
        let mut y = U256::ZERO;
        while !a.is_zero() {
            while !a.is_odd() {
                a = a.shr1();
                x = if x.is_odd() {
                    let (s, c) = x.overflowing_add(m);
                    let mut h = s.shr1();
                    if c {
                        h.0[3] |= 1 << 63;
                    }
                    h
                } else {
                    x.shr1()
                };
            }
            while !b.is_odd() {
                b = b.shr1();
                y = if y.is_odd() {
                    let (s, c) = y.overflowing_add(m);
                    let mut h = s.shr1();
                    if c {
                        h.0[3] |= 1 << 63;
                    }
                    h
                } else {
                    y.shr1()
                };
            }
            if a.ge(&b) {
                a = a.wrapping_sub(&b);
                x = x.sub_mod(&y, m);
            } else {
                b = b.wrapping_sub(&a);
                y = y.sub_mod(&x, m);
            }
        }
        if b == U256::ONE {
            Some(y)
        } else {
            None
        }
    }

    const P: U256 = U256([
        0xFFFFFFFEFFFFFC2F,
        0xFFFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF,
        0xFFFFFFFFFFFFFFFF,
    ]);
    const N: U256 = U256([
        0xBFD25E8CD0364141,
        0xBAAEDCE6AF48A03B,
        0xFFFFFFFFFFFFFFFE,
        0xFFFFFFFFFFFFFFFF,
    ]);

    fn check(a: &U256, m: &U256) {
        let got = inv_mod_odd(&a.0, &m.0).map(U256);
        let want = inv_mod_xgcd(a, m);
        assert_eq!(got, want, "a={a:?} m={m:?}");
        if let Some(inv) = got {
            // a * a^-1 ≡ 1 (mod m); mul_mod reduces the unreduced `a` too.
            // (reduce512 requires a large modulus, so skip tiny test moduli —
            // those are still covered by the xgcd differential above.)
            if m.0[3] >= 1 << 62 {
                assert_eq!(a.mul_mod(&inv, m), U256::ONE);
            }
        }
    }

    #[test]
    fn signed62_roundtrip() {
        for v in [
            U256::ZERO,
            U256::ONE,
            U256([u64::MAX; 4]),
            U256([0x123456789abcdef0, 0xfedcba9876543210, 7, 1 << 63]),
        ] {
            assert_eq!(U256(Signed62::from_limbs64(&v.0).to_limbs64()), v);
        }
    }

    #[test]
    fn neginv256_table_is_correct() {
        for i in 0..128u16 {
            // b * t ≡ -1 ≡ 255 (mod 256) for every odd byte b.
            let b = (2 * i + 1) as u8;
            assert_eq!(b.wrapping_mul(NEGINV256[i as usize]), 255);
        }
    }

    #[test]
    fn small_values_both_moduli() {
        for v in 0..64u64 {
            let a = U256::from_u64(v);
            check(&a, &P);
            check(&a, &N);
            check(&a, &U256::from_u64(9)); // composite odd modulus
            check(&a, &U256::from_u64(255));
        }
    }

    #[test]
    fn boundary_values() {
        for m in [P, N] {
            check(&m.wrapping_sub(&U256::ONE), &m);
            check(&m.shr1(), &m);
            check(&U256([u64::MAX; 4]), &m); // unreduced input > m
            check(&m.overflowing_add(&U256::from_u64(2)).0, &m);
        }
    }

    #[test]
    fn pseudorandom_differential() {
        let mut s: u64 = 0xA076_1D64_78BD_642F;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for i in 0..2000 {
            let a = U256([next(), next(), next(), next()]);
            let m = if i % 2 == 0 { P } else { N };
            check(&a, &m);
        }
        // random odd moduli
        for _ in 0..500 {
            let a = U256([next(), next(), next(), next()]);
            let m = U256([next() | 1, next(), next(), next() | (1 << 62)]);
            check(&a, &m);
        }
    }
}
