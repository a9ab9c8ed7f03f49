//! Crypto backend selection and per-backend operation accounting.
//!
//! The crate ships three interchangeable implementations of its hot
//! primitives (AES-128 rounds, carry-less multiplication):
//!
//! * **Portable** — the byte-oriented reference code in the `aes`
//!   module and [`crate::mac`]; runs everywhere, easy to audit against
//!   FIPS-197.
//! * **Accelerated** — AES-NI and PCLMULQDQ intrinsics
//!   (the `accel` module), selected at runtime when the host CPU reports
//!   the `aes` and `pclmulqdq` features. This is the software analogue
//!   of the paper's single-cycle hardware GF multipliers (Section 3.2).
//! * **Wide** — VAES + VPCLMULQDQ kernels (the `wide` module) that push
//!   four AES blocks through every instruction (512-bit registers when
//!   AVX-512F is present, 2×128-bit AVX2 lanes otherwise) and run the
//!   Carter-Wegman polynomial hash as two parallel Horner chains. A
//!   strict superset of Accelerated: single-block and scalar-GF calls
//!   under this tier use the AES-NI/PCLMULQDQ path.
//!
//! Selection happens **once per process** (a [`OnceLock`]): the CPU is
//! probed, the `AME_CRYPTO_BACKEND` override is honoured, and a
//! known-answer cross-check of the selected tier against the portable
//! reference runs before that tier is allowed to serve traffic. This is
//! also where the FIPS-style power-on self-test lives — once per
//! process, never per key-schedule construction. The resolved tier is
//! logged to stderr exactly once, so process logs and result JSON can
//! always be reconciled.
//!
//! # Environment override
//!
//! `AME_CRYPTO_BACKEND=portable` forces the portable backend even on
//! capable hosts (CI exercises this leg); `accel` and `wide` force
//! those tiers; unset or `auto` detects (preferring the widest capable
//! tier). Forcing a tier the host cannot provide — or setting an
//! unknown value — is a **hard startup error**, never a silent
//! fallback: a bench that claims `wide` must have run `wide`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Which implementation of the hot crypto primitives is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Byte-oriented reference implementation (runs everywhere).
    Portable,
    /// AES-NI + PCLMULQDQ intrinsics (x86_64 with `aes`/`pclmulqdq`).
    Accelerated,
    /// VAES + VPCLMULQDQ four-blocks-per-instruction kernels (x86_64
    /// with `vaes`/`vpclmulqdq`/`avx2`, widening to 512-bit registers
    /// when `avx512f` is present).
    Wide,
}

impl Backend {
    /// Short identifier used in telemetry paths and result JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Portable => "portable",
            Backend::Accelerated => "accelerated",
            Backend::Wide => "wide",
        }
    }

    /// `true` for any hardware tier ([`Backend::Accelerated`] or
    /// [`Backend::Wide`] — the wide tier is a strict superset of the
    /// AES-NI one and reuses it for scalar work).
    #[must_use]
    pub fn is_accelerated(self) -> bool {
        !matches!(self, Backend::Portable)
    }

    /// `true` for [`Backend::Wide`].
    #[must_use]
    pub fn is_wide(self) -> bool {
        matches!(self, Backend::Wide)
    }

    /// All backends, for sweeps and cross-checks.
    pub const ALL: [Backend; 3] = [Backend::Portable, Backend::Accelerated, Backend::Wide];

    /// Stable per-backend index (also the telemetry tier gauge value:
    /// 0 = portable, 1 = accelerated, 2 = wide).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Backend::Portable => 0,
            Backend::Accelerated => 1,
            Backend::Wide => 2,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `true` iff the host CPU can run the accelerated backend at all
/// (independent of any `AME_CRYPTO_BACKEND` override).
#[must_use]
pub fn accel_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("pclmulqdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `true` iff the host CPU can run the wide (VAES/VPCLMULQDQ) backend.
/// Requires [`accel_available`] too: the wide tier delegates single
/// blocks, batch tails and scalar GF work to the AES-NI path.
#[must_use]
pub fn wide_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        accel_available()
            && std::arch::is_x86_feature_detected!("vaes")
            && std::arch::is_x86_feature_detected!("vpclmulqdq")
            && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which register shape the wide tier's AES kernel would use on this
/// host: `"vaes512"` (AVX-512F zmm), `"vaes256"` (AVX2 ymm), or
/// `"none"` when [`wide_available`] is false. Recorded in result JSON
/// so wide-tier numbers from different hosts stay comparable.
#[must_use]
pub fn wide_shape() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if !wide_available() {
            "none"
        } else if std::arch::is_x86_feature_detected!("avx512f") {
            "vaes512"
        } else {
            "vaes256"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none"
    }
}

/// Comma-separated list of the crypto-relevant CPU features the host
/// reports, recorded in result-JSON metadata so perf trajectories are
/// comparable across machines.
#[must_use]
pub fn host_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        if std::arch::is_x86_feature_detected!("aes") {
            feats.push("aes");
        }
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            feats.push("pclmulqdq");
        }
        if std::arch::is_x86_feature_detected!("sse4.1") {
            feats.push("sse4.1");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("vaes") {
            feats.push("vaes");
        }
        if std::arch::is_x86_feature_detected!("vpclmulqdq") {
            feats.push("vpclmulqdq");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if std::arch::is_x86_feature_detected!("avx512vl") {
            feats.push("avx512vl");
        }
        if feats.is_empty() {
            "none".to_string()
        } else {
            feats.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        format!("non-x86_64 ({})", std::env::consts::ARCH)
    }
}

static ACTIVE: OnceLock<Backend> = OnceLock::new();

/// The backend serving this process, resolved once on first use.
///
/// Resolution order: `AME_CRYPTO_BACKEND` override, then CPU feature
/// detection, then a one-time known-answer cross-check (a hardware
/// implementation that disagrees with the portable reference is never
/// selected).
///
/// # Panics
///
/// Panics on first use if `AME_CRYPTO_BACKEND` forces a tier the host
/// cannot provide (missing CPU features or a failed known-answer
/// self-test), or names a tier this build does not know. A forced
/// backend that cannot be satisfied must abort, not silently degrade —
/// otherwise every downstream measurement lies about what it ran.
#[must_use]
pub fn active() -> Backend {
    *ACTIVE.get_or_init(detect)
}

/// What the host can actually run, self-tests included. Split from
/// [`resolve`] so resolution stays a pure, exhaustively testable
/// function of (override string, capabilities).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostCaps {
    /// CPU reports `aes`+`pclmulqdq`.
    accel_features: bool,
    /// Accelerated known-answer cross-check passed.
    accel_self_test: bool,
    /// CPU reports `vaes`+`vpclmulqdq`+`avx2` (and the accel baseline).
    wide_features: bool,
    /// Wide known-answer cross-check passed.
    wide_self_test: bool,
}

impl HostCaps {
    fn accel_ok(self) -> bool {
        self.accel_features && self.accel_self_test
    }

    fn wide_ok(self) -> bool {
        self.wide_features && self.wide_self_test
    }
}

/// Pure resolution of the `AME_CRYPTO_BACKEND` override against host
/// capabilities. `Err` carries the startup-abort message.
fn resolve(want: &str, caps: HostCaps) -> Result<Backend, String> {
    match want.to_ascii_lowercase().as_str() {
        "" | "auto" => {
            if caps.wide_ok() {
                Ok(Backend::Wide)
            } else if caps.accel_ok() {
                Ok(Backend::Accelerated)
            } else {
                Ok(Backend::Portable)
            }
        }
        "portable" | "soft" | "reference" => Ok(Backend::Portable),
        "accel" | "accelerated" | "aesni" => {
            if caps.accel_ok() {
                Ok(Backend::Accelerated)
            } else if caps.accel_features {
                Err("AME_CRYPTO_BACKEND=accel: known-answer self-test failed \
                     (accelerated primitives disagree with the portable reference)"
                    .into())
            } else {
                Err("AME_CRYPTO_BACKEND=accel: host lacks aes+pclmulqdq; \
                     unset the override or use AME_CRYPTO_BACKEND=portable"
                    .into())
            }
        }
        "wide" | "vaes" => {
            if caps.wide_ok() {
                Ok(Backend::Wide)
            } else if caps.wide_features {
                Err("AME_CRYPTO_BACKEND=wide: known-answer self-test failed \
                     (wide primitives disagree with the portable reference)"
                    .into())
            } else {
                Err("AME_CRYPTO_BACKEND=wide: host lacks vaes+vpclmulqdq+avx2 \
                     (plus the aes+pclmulqdq baseline); unset the override or \
                     use AME_CRYPTO_BACKEND=accel|portable"
                    .into())
            }
        }
        other => Err(format!(
            "AME_CRYPTO_BACKEND={other:?}: unknown backend \
             (expected auto, portable, accel or wide)"
        )),
    }
}

fn detect() -> Backend {
    let want = std::env::var("AME_CRYPTO_BACKEND").unwrap_or_default();
    let accel_features = accel_available();
    let wide_features = wide_available();
    let caps = HostCaps {
        accel_features,
        accel_self_test: accel_features && self_test_accelerated(),
        wide_features,
        wide_self_test: wide_features && self_test_wide(),
    };
    match resolve(&want, caps) {
        Ok(backend) => {
            // Exactly once per process: OnceLock runs `detect` once.
            eprintln!(
                "ame-crypto: backend={} shape={} host_features={}",
                backend.name(),
                if backend.is_wide() {
                    wide_shape()
                } else {
                    "scalar"
                },
                host_features()
            );
            backend
        }
        Err(msg) => panic!("{msg}"),
    }
}

/// One-time power-on cross-check of the accelerated primitives against
/// the portable reference (FIPS-197 Appendix C.1 plus structured
/// patterns). Runs inside backend selection — *not* per construction.
#[cfg(target_arch = "x86_64")]
fn self_test_accelerated() -> bool {
    use crate::accel;
    // AES: FIPS-197 Appendix C.1 and a second structured block.
    let key: [u8; 16] = core::array::from_fn(|i| i as u8);
    let aes = crate::aes::Aes128::new(&key);
    for block in [
        core::array::from_fn(|i| (i as u8) * 0x11),
        [0xa5u8; 16],
        core::array::from_fn(|i| 0x80u8.wrapping_shr(i as u32 % 8)),
    ] {
        let reference = aes.encrypt_block_with(Backend::Portable, &block);
        if accel::encrypt_block(aes.round_keys(), &block) != reference {
            return false;
        }
    }
    // PCLMULQDQ: structured carry-less products.
    for (a, b) in [
        (1u64, 0x1bu64),
        (u64::MAX, u64::MAX),
        (0x9e37_79b9_7f4a_7c15, 0x0123_4567_89ab_cdef),
        (1u64 << 63, 3),
    ] {
        if accel::clmul(a, b) != crate::mac::clmul_with(Backend::Portable, a, b) {
            return false;
        }
        if accel::gf64_mul(a, b) != crate::mac::gf64_mul_with(Backend::Portable, a, b) {
            return false;
        }
    }
    // The run kernels: the in-place keystream, and the powers-form
    // tags over the AES-NI pads.
    run_kernels_match_portable(Backend::Accelerated)
}

/// Shared known-answer check for a tier's run kernels, through the
/// tier's dispatch (uncounted): 15 structured messages — whole groups of
/// every kernel shape plus a short last one, and past the wide tier's
/// shortest run — under two keys must get the portable reference's
/// keystreams and full-width tags.
#[cfg(target_arch = "x86_64")]
fn run_kernels_match_portable(backend: Backend) -> bool {
    let blocks: Vec<[u8; 64]> = (0..15)
        .map(|i| core::array::from_fn(|j| (i * 53 + j * 11 + 1) as u8))
        .collect();
    let nonces: Vec<(u64, u64)> = (0..15u64).map(|i| (i << 42 | i << 6, !i)).collect();
    [0x9e37_79b9_7f4a_7c15u64, 0x0123_4567_89ab_cdef | 1]
        .iter()
        .all(|&h| {
            let aes = crate::aes::Aes128::new(
                &[h.to_le_bytes(), (!h).to_le_bytes()]
                    .concat()
                    .try_into()
                    .expect("16"),
            );
            let run = |backend| {
                let (mut sealed, mut tags) = (blocks.clone(), [0; 15]);
                crate::ctr::xor_keystream_with(backend, &aes, &nonces, &mut sealed);
                let powers = crate::mac::hash_powers(h);
                crate::mac::tags_with(backend, &aes, &powers, &nonces, &blocks, &mut tags);
                (sealed, tags)
            };
            run(backend) == run(Backend::Portable)
        })
}

#[cfg(not(target_arch = "x86_64"))]
fn self_test_accelerated() -> bool {
    false
}

/// One-time power-on cross-check of the wide (VAES/VPCLMULQDQ) kernels
/// against the portable reference: a batch long enough to exercise the
/// four-blocks-per-instruction main loop *and* the scalar tail, plus
/// the run kernels over structured blocks.
#[cfg(target_arch = "x86_64")]
fn self_test_wide() -> bool {
    use crate::wide;
    let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(0x1f));
    let aes = crate::aes::Aes128::new(&key);
    // 35 blocks: two full 16-block groups plus a 3-block tail.
    let mut batch: Vec<[u8; 16]> = (0..35)
        .map(|i| core::array::from_fn(|j| (i * 29 + j * 3) as u8))
        .collect();
    let expected: Vec<[u8; 16]> = batch
        .iter()
        .map(|b| aes.encrypt_block_with(Backend::Portable, b))
        .collect();
    wide::encrypt_blocks(wide::Shape::host(), aes.round_keys(), &mut batch);
    if batch != expected {
        return false;
    }
    // The run kernels in the host's shape.
    run_kernels_match_portable(Backend::Wide)
}

#[cfg(not(target_arch = "x86_64"))]
fn self_test_wide() -> bool {
    false
}

/// Lock-free per-backend operation counters (process-global, updated
/// with relaxed atomics on the hot paths).
#[derive(Default)]
struct OpCells {
    keystream_calls: AtomicU64,
    keystream_blocks: AtomicU64,
    batched_calls: AtomicU64,
    mac_tags: AtomicU64,
    mac_batch_calls: AtomicU64,
    mac_batch_tags: AtomicU64,
}

impl OpCells {
    const fn new() -> Self {
        Self {
            keystream_calls: AtomicU64::new(0),
            keystream_blocks: AtomicU64::new(0),
            batched_calls: AtomicU64::new(0),
            mac_tags: AtomicU64::new(0),
            mac_batch_calls: AtomicU64::new(0),
            mac_batch_tags: AtomicU64::new(0),
        }
    }
}

static OPS: [OpCells; Backend::ALL.len()] = [OpCells::new(), OpCells::new(), OpCells::new()];

/// Snapshot of one backend's lifetime operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsSnapshot {
    /// Keystream generations (one 64-byte block each).
    pub keystream_calls: u64,
    /// 16-byte AES blocks produced for keystreams (4 per 64-byte block).
    pub keystream_blocks: u64,
    /// Multi-block `keystream_batch` invocations.
    pub batched_calls: u64,
    /// Carter-Wegman tags computed (MAC or verify), scalar *and*
    /// batched — the total tag volume.
    pub mac_tags: u64,
    /// Multi-message `MemoryCipher::mac_batch` invocations.
    pub mac_batch_calls: u64,
    /// Carter-Wegman tags produced by batched calls (a subset of
    /// [`OpsSnapshot::mac_tags`]).
    pub mac_batch_tags: u64,
}

/// Lifetime operation counts of `backend` in this process.
#[must_use]
pub fn ops(backend: Backend) -> OpsSnapshot {
    let c = &OPS[backend.index()];
    OpsSnapshot {
        keystream_calls: c.keystream_calls.load(Ordering::Relaxed),
        keystream_blocks: c.keystream_blocks.load(Ordering::Relaxed),
        batched_calls: c.batched_calls.load(Ordering::Relaxed),
        mac_tags: c.mac_tags.load(Ordering::Relaxed),
        mac_batch_calls: c.mac_batch_calls.load(Ordering::Relaxed),
        mac_batch_tags: c.mac_batch_tags.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_keystream(backend: Backend, calls: u64, aes_blocks: u64) {
    let c = &OPS[backend.index()];
    c.keystream_calls.fetch_add(calls, Ordering::Relaxed);
    c.keystream_blocks.fetch_add(aes_blocks, Ordering::Relaxed);
}

pub(crate) fn count_batch(backend: Backend) {
    OPS[backend.index()]
        .batched_calls
        .fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_macs(backend: Backend, tags: u64) {
    OPS[backend.index()]
        .mac_tags
        .fetch_add(tags, Ordering::Relaxed);
}

pub(crate) fn count_mac_batch(backend: Backend, tags: u64) {
    let c = &OPS[backend.index()];
    c.mac_batch_calls.fetch_add(1, Ordering::Relaxed);
    c.mac_batch_tags.fetch_add(tags, Ordering::Relaxed);
    c.mac_tags.fetch_add(tags, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Portable.name(), "portable");
        assert_eq!(Backend::Accelerated.name(), "accelerated");
        assert_eq!(Backend::Wide.name(), "wide");
        assert!(Backend::Accelerated.is_accelerated());
        assert!(Backend::Wide.is_accelerated());
        assert!(Backend::Wide.is_wide());
        assert!(!Backend::Accelerated.is_wide());
        assert!(!Backend::Portable.is_accelerated());
        assert_eq!(
            Backend::ALL.map(Backend::index),
            [0, 1, 2],
            "tier gauge values are part of the telemetry contract"
        );
    }

    #[test]
    fn active_is_consistent_with_capability() {
        // Whatever the override says, a hardware selection requires the
        // CPU to actually have the features.
        let active = active();
        if active.is_wide() {
            assert!(wide_available());
        }
        if active.is_accelerated() {
            assert!(accel_available());
        }
    }

    #[test]
    fn wide_implies_accel() {
        if wide_available() {
            assert!(accel_available(), "wide tier delegates scalars to accel");
            assert_ne!(wide_shape(), "none");
        } else {
            assert_eq!(wide_shape(), "none");
        }
    }

    const FULL: HostCaps = HostCaps {
        accel_features: true,
        accel_self_test: true,
        wide_features: true,
        wide_self_test: true,
    };

    const BARE: HostCaps = HostCaps {
        accel_features: false,
        accel_self_test: false,
        wide_features: false,
        wide_self_test: false,
    };

    #[test]
    fn resolve_auto_prefers_widest_capable_tier() {
        assert_eq!(resolve("", FULL), Ok(Backend::Wide));
        assert_eq!(resolve("auto", FULL), Ok(Backend::Wide));
        let accel_only = HostCaps {
            wide_features: false,
            wide_self_test: false,
            ..FULL
        };
        assert_eq!(resolve("auto", accel_only), Ok(Backend::Accelerated));
        assert_eq!(resolve("auto", BARE), Ok(Backend::Portable));
        // A failed self-test quietly disqualifies a tier in auto mode.
        let wide_broken = HostCaps {
            wide_self_test: false,
            ..FULL
        };
        assert_eq!(resolve("auto", wide_broken), Ok(Backend::Accelerated));
    }

    #[test]
    fn resolve_forced_tier_is_honoured_or_fatal() {
        assert_eq!(resolve("portable", BARE), Ok(Backend::Portable));
        assert_eq!(resolve("accel", FULL), Ok(Backend::Accelerated));
        assert_eq!(resolve("wide", FULL), Ok(Backend::Wide));
        assert_eq!(resolve("WIDE", FULL), Ok(Backend::Wide), "case-insensitive");
        // Forcing an unsatisfiable tier is a startup error, not a
        // silent downgrade.
        let err = resolve("wide", BARE).unwrap_err();
        assert!(err.contains("wide"), "{err}");
        let err = resolve("accel", BARE).unwrap_err();
        assert!(err.contains("accel"), "{err}");
        // Features present but self-test failing is also fatal, with a
        // distinct message.
        let wide_broken = HostCaps {
            wide_self_test: false,
            ..FULL
        };
        let err = resolve("wide", wide_broken).unwrap_err();
        assert!(err.contains("self-test"), "{err}");
    }

    #[test]
    fn resolve_rejects_unknown_values() {
        let err = resolve("quantum", FULL).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(resolve("widest", FULL).is_err());
    }

    #[test]
    fn ops_accumulate() {
        let before = ops(Backend::Portable);
        count_keystream(Backend::Portable, 1, 4);
        count_macs(Backend::Portable, 1);
        count_batch(Backend::Portable);
        count_mac_batch(Backend::Portable, 16);
        let after = ops(Backend::Portable);
        assert!(after.keystream_calls > before.keystream_calls);
        assert!(after.keystream_blocks >= before.keystream_blocks + 4);
        // One scalar tag plus a 16-tag batch: the total grows by 17 and
        // the batched subset by 16.
        assert!(after.mac_tags >= before.mac_tags + 17);
        assert!(after.batched_calls > before.batched_calls);
        assert!(after.mac_batch_calls > before.mac_batch_calls);
        assert!(after.mac_batch_tags >= before.mac_batch_tags + 16);
    }

    #[test]
    fn wide_ops_have_their_own_cells() {
        let before = ops(Backend::Wide);
        count_keystream(Backend::Wide, 2, 8);
        let after = ops(Backend::Wide);
        assert!(after.keystream_blocks >= before.keystream_blocks + 8);
    }

    #[test]
    fn host_features_reports_something() {
        let f = host_features();
        assert!(!f.is_empty());
        // The wide tier's features must be visible whenever the tier is.
        if wide_available() {
            assert!(f.contains("vaes"), "{f}");
            assert!(f.contains("vpclmulqdq"), "{f}");
        }
    }
}
