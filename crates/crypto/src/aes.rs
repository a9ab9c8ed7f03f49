//! AES-128 block cipher (FIPS-197), written from scratch.
//!
//! The byte-oriented implementation in this module is the portable
//! reference: simple and easy to audit against the specification. On
//! hosts with AES-NI the public entry points dispatch to the
//! hardware-accelerated path in the `accel` module (selected once per
//! process by [`crate::backend`]); both paths consume the same FIPS-197
//! key schedule and are bit-identical — enforced by the cross-check
//! property tests. The `*_with` variants pin a specific backend, which
//! is what those cross-checks (and backend-sweep benchmarks) use.

use crate::backend::Backend;

/// The AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, derived from [`SBOX`] at compile time.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round constants for AES-128 key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
#[inline]
fn xtime(a: u8) -> u8 {
    (a << 1) ^ (if a & 0x80 != 0 { 0x1b } else { 0 })
}

/// General GF(2^8) multiply (used by the inverse MixColumns).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key schedule.
///
/// # Example
///
/// ```
/// use ame_crypto::aes::Aes128;
///
/// // FIPS-197 Appendix C.1 known-answer test.
/// let key: [u8; 16] = core::array::from_fn(|i| i as u8);
/// let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
/// let aes = Aes128::new(&key);
/// let ct = aes.encrypt_block(&plain);
/// assert_eq!(
///     ct,
///     [0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
///      0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a]
/// );
/// assert_eq!(aes.decrypt_block(&ct), plain);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the 11 round keys.
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..(i + 1) * 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for t in temp.iter_mut() {
                    *t = SBOX[*t as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..(c + 1) * 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Self { round_keys }
    }

    /// The expanded FIPS-197 round keys (consumed unchanged by both the
    /// portable rounds and the AES-NI path).
    #[must_use]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block on the process-wide active backend.
    #[must_use]
    pub fn encrypt_block(&self, plain: &[u8; 16]) -> [u8; 16] {
        self.encrypt_block_with(crate::backend::active(), plain)
    }

    /// Encrypts one 16-byte block on an explicitly chosen backend.
    ///
    /// Requesting [`Backend::Accelerated`] on a host without AES-NI
    /// falls back to the portable rounds.
    #[must_use]
    pub fn encrypt_block_with(&self, backend: Backend, plain: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if backend.is_accelerated() && crate::backend::accel_available() {
            return crate::accel::encrypt_block(&self.round_keys, plain);
        }
        let _ = backend;
        self.encrypt_block_portable(plain)
    }

    /// Encrypts every 16-byte block in `blocks` in place on the active
    /// backend. On AES-NI hosts the key is scheduled once and the blocks
    /// are pushed through eight pipelined streams — this is the building
    /// block of the batched keystream API.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        self.encrypt_blocks_with(crate::backend::active(), blocks);
    }

    /// [`Self::encrypt_blocks`] on an explicitly chosen backend.
    pub fn encrypt_blocks_with(&self, backend: Backend, blocks: &mut [[u8; 16]]) {
        #[cfg(target_arch = "x86_64")]
        {
            if backend.is_wide() && crate::backend::wide_available() {
                crate::wide::encrypt_blocks(&self.round_keys, blocks);
                return;
            }
            if backend.is_accelerated() && crate::backend::accel_available() {
                crate::accel::encrypt_blocks(&self.round_keys, blocks);
                return;
            }
        }
        let _ = backend;
        for block in blocks.iter_mut() {
            *block = self.encrypt_block_portable(block);
        }
    }

    /// Encrypts every 16-byte chunk of every 64-byte memory block in
    /// place on an explicitly chosen backend — the zero-copy spine of
    /// the batched keystream: callers lay the AES inputs directly in
    /// the output buffer and the hardware tiers encrypt them where they
    /// lie (a `[u8; 64]` is exactly four contiguous `[u8; 16]` chunks),
    /// so no scratch block array or copy-out reshape sits between the
    /// cipher and the caller.
    pub fn encrypt_blocks64_with(&self, backend: Backend, blocks: &mut [[u8; crate::BLOCK_BYTES]]) {
        #[cfg(target_arch = "x86_64")]
        {
            if backend.is_wide() && crate::backend::wide_available() {
                crate::wide::encrypt_blocks64(&self.round_keys, blocks);
                return;
            }
            if backend.is_accelerated() && crate::backend::accel_available() {
                crate::accel::encrypt_blocks64(&self.round_keys, blocks);
                return;
            }
        }
        let _ = backend;
        for block in blocks.iter_mut() {
            for chunk in 0..crate::BLOCK_BYTES / 16 {
                let mut b = [0u8; 16];
                b.copy_from_slice(&block[chunk * 16..(chunk + 1) * 16]);
                block[chunk * 16..(chunk + 1) * 16]
                    .copy_from_slice(&self.encrypt_block_portable(&b));
            }
        }
    }

    /// The byte-oriented reference rounds (always available; the
    /// cross-check baseline).
    fn encrypt_block_portable(&self, plain: &[u8; 16]) -> [u8; 16] {
        let mut s = *plain;
        add_round_key(&mut s, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, &self.round_keys[round]);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &self.round_keys[10]);
        s
    }

    /// FIPS-style power-on known-answer self-test: returns `true` iff
    /// this implementation reproduces the FIPS-197 Appendix C.1 vector in
    /// both directions. Real cryptographic modules refuse to operate when
    /// this fails; callers embedding the cipher in safety-critical paths
    /// can do the same.
    ///
    /// # Example
    ///
    /// ```
    /// assert!(ame_crypto::aes::Aes128::self_test());
    /// ```
    #[must_use]
    pub fn self_test() -> bool {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&plain) == expected && aes.decrypt_block(&expected) == plain
    }

    /// Decrypts one 16-byte block on the process-wide active backend.
    #[must_use]
    pub fn decrypt_block(&self, ct: &[u8; 16]) -> [u8; 16] {
        self.decrypt_block_with(crate::backend::active(), ct)
    }

    /// Decrypts one 16-byte block on an explicitly chosen backend.
    #[must_use]
    pub fn decrypt_block_with(&self, backend: Backend, ct: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if backend.is_accelerated() && crate::backend::accel_available() {
            return crate::accel::decrypt_block(&self.round_keys, ct);
        }
        let _ = backend;
        self.decrypt_block_portable(ct)
    }

    fn decrypt_block_portable(&self, ct: &[u8; 16]) -> [u8; 16] {
        let mut s = *ct;
        add_round_key(&mut s, &self.round_keys[10]);
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        for round in (1..10).rev() {
            add_round_key(&mut s, &self.round_keys[round]);
            inv_mix_columns(&mut s);
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
        }
        add_round_key(&mut s, &self.round_keys[0]);
        s
    }
}

// The state is stored in FIPS input order: byte i of the block is state
// element i, which the spec views as state[row = i % 4][col = i / 4].

#[inline]
fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for (a, b) in s.iter_mut().zip(rk.iter()) {
        *a ^= b;
    }
}

#[inline]
fn sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[inline]
fn inv_sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// Rotate row `r` left by `r` positions (rows are strided across columns).
#[inline]
fn shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[r + 4 * c] = orig[r + 4 * ((c + r) % 4)];
        }
    }
}

#[inline]
fn inv_shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[r + 4 * ((c + r) % 4)] = orig[r + 4 * c];
        }
    }
}

#[inline]
fn mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        s[4 * c] = col[0] ^ t ^ xtime(col[0] ^ col[1]);
        s[4 * c + 1] = col[1] ^ t ^ xtime(col[1] ^ col[2]);
        s[4 * c + 2] = col[2] ^ t ^ xtime(col[2] ^ col[3]);
        s[4 * c + 3] = col[3] ^ t ^ xtime(col[3] ^ col[0]);
    }
}

#[inline]
fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] =
            gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        s[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        s[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        s[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B worked example.
    #[test]
    fn fips197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let plain = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&plain), expected);
        assert_eq!(aes.decrypt_block(&expected), plain);
    }

    /// FIPS-197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(aes.encrypt_block(&plain), expected);
        assert_eq!(aes.decrypt_block(&expected), plain);
    }

    #[test]
    fn self_test_passes() {
        assert!(Aes128::self_test());
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = Aes128::new(&[0x55; 16]);
        let mut block = [0u8; 16];
        for i in 0..256 {
            block[0] = i as u8;
            block[7] = (i * 3) as u8;
            let ct = aes.encrypt_block(&block);
            assert_eq!(aes.decrypt_block(&ct), block);
        }
    }

    #[test]
    fn inv_sbox_is_inverse() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn shift_rows_roundtrip() {
        let mut s: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = s;
        shift_rows(&mut s);
        assert_ne!(s, orig);
        inv_shift_rows(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn mix_columns_roundtrip() {
        let mut s: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(29));
        let orig = s;
        mix_columns(&mut s);
        assert_ne!(s, orig);
        inv_mix_columns(&mut s);
        assert_eq!(s, orig);
    }

    #[test]
    fn debug_does_not_leak_keys() {
        let aes = Aes128::new(&[9u8; 16]);
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('9'));
        assert!(dbg.contains("Aes128"));
    }
}
