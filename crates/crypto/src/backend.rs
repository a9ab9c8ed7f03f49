//! Crypto backend selection, and each tier's operation totals.
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
//!   AVX-512F is present, 2×128-bit AVX2 lanes otherwise) and hash
//!   several messages of a run per VPCLMULQDQ register, each in powers
//!   form. A strict superset of Accelerated: single blocks, runs shorter
//!   than the wide kernels' shortest and scalar-GF calls under this tier
//!   use the AES-NI/PCLMULQDQ path.
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
//! Each [`crate::MemoryCipher`] counts its own work in cells of its own.
//! [`ops`] sums a tier's: every cipher joins a ledger once, when it is
//! built, and a dropped cipher's final counts fold into its tier's
//! retired totals, so the sum stays exact while the datapath shares no
//! cache line and takes no lock.
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
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// One cipher's operation counts, and the tier it runs on. Only the
/// cipher and its clones write them, so the relaxed cells stay
/// uncontended; the alignment keeps two ciphers' counts off one cache
/// line.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct CipherCounts {
    tier: Backend,
    pub(crate) keystream_calls: AtomicU64,
    /// Tags made one at a time (node MACs, scalar MACs and verifies).
    pub(crate) single_tags: AtomicU64,
    /// Tags made by the run kernel.
    pub(crate) batch_tags: AtomicU64,
}

impl CipherCounts {
    /// Fresh cells for a cipher on `tier`, entered in the ledger [`ops`]
    /// reads.
    pub(crate) fn register(tier: Backend) -> Arc<Self> {
        let counts = Arc::new(Self {
            tier,
            keystream_calls: AtomicU64::new(0),
            single_tags: AtomicU64::new(0),
            batch_tags: AtomicU64::new(0),
        });
        ledger().live.push(Arc::clone(&counts));
        counts
    }

    pub(crate) fn snapshot(&self) -> OpsSnapshot {
        let batch = self.batch_tags.load(Ordering::Relaxed);
        OpsSnapshot {
            keystream_calls: self.keystream_calls.load(Ordering::Relaxed),
            mac_tags: self.single_tags.load(Ordering::Relaxed) + batch,
            mac_batch_tags: batch,
        }
    }
}

/// Operation counts: of one cipher ([`crate::MemoryCipher::ops`]), or of
/// every cipher a tier has served in this process ([`ops`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpsSnapshot {
    /// Keystream generations (one 64-byte block each).
    pub keystream_calls: u64,
    /// Carter-Wegman tags computed (MAC or verify), scalar *and*
    /// batched — the total tag volume.
    pub mac_tags: u64,
    /// Carter-Wegman tags produced by the run kernel (a subset of
    /// [`OpsSnapshot::mac_tags`]).
    pub mac_batch_tags: u64,
}

impl std::ops::AddAssign for OpsSnapshot {
    fn add_assign(&mut self, other: Self) {
        self.keystream_calls += other.keystream_calls;
        self.mac_tags += other.mac_tags;
        self.mac_batch_tags += other.mac_batch_tags;
    }
}

/// Every live cipher's counts, and per tier the final counts of the
/// ciphers dropped since. The datapath never takes its lock: a cipher
/// joins once, when it is built.
#[derive(Default)]
struct Ledger {
    live: Vec<Arc<CipherCounts>>,
    retired: [OpsSnapshot; Backend::ALL.len()],
}

static LEDGER: LazyLock<Mutex<Ledger>> = LazyLock::new(Mutex::default);

/// The ledger, locked, with the counts no cipher holds any more moved
/// into the retired totals: `Arc::get_mut` succeeds only on those, and
/// its acquire makes their final counts visible.
fn ledger() -> MutexGuard<'static, Ledger> {
    // Each update under the lock is one push or one cell's fold, so a
    // poisoned ledger is still a whole one.
    let mut ledger = LEDGER.lock().unwrap_or_else(PoisonError::into_inner);
    let Ledger { live, retired } = &mut *ledger;
    live.retain_mut(|counts| match Arc::get_mut(counts) {
        Some(dropped) => {
            retired[dropped.tier.index()] += dropped.snapshot();
            false
        }
        None => true,
    });
    ledger
}

/// Lifetime operation counts of every cipher built on `backend` in this
/// process, live or dropped.
#[must_use]
pub fn ops(backend: Backend) -> OpsSnapshot {
    let ledger = ledger();
    let mut sum = ledger.retired[backend.index()];
    for counts in ledger.live.iter().filter(|c| c.tier == backend) {
        sum += counts.snapshot();
    }
    sum
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
        // The cipher's own counts are exact; its tier's sum moves by at
        // least as much (this crate's other tests count beside it) and
        // keeps the counts once the cipher is dropped.
        let before = ops(Backend::Portable);
        let cipher = crate::MemoryCipher::on(Backend::Portable, 5);
        let ct = cipher.encrypt_block(0, 1, &[3; 64]);
        assert!(cipher.verify_block(0, 1, &ct, cipher.mac_block(0, 1, &ct)));
        let nonces = [(0x40, 1), (0x80, 1)];
        let mut run = [[3; 64]; 2];
        cipher.xor_keystream(&nonces, &mut run);
        let mut tags = [0; 2];
        cipher.tags_into(&nonces, &run, &mut tags);
        // One scalar keystream and a two-block run; two scalar tags and
        // a two-tag run.
        let own = OpsSnapshot {
            keystream_calls: 3,
            mac_tags: 4,
            mac_batch_tags: 2,
        };
        assert_eq!(cipher.ops(), own);
        drop(cipher);
        let after = ops(Backend::Portable);
        assert!(after.keystream_calls >= before.keystream_calls + own.keystream_calls);
        assert!(after.mac_tags >= before.mac_tags + own.mac_tags);
        assert!(after.mac_batch_tags >= before.mac_batch_tags + own.mac_batch_tags);
    }

    #[test]
    fn wide_ops_have_their_own_cells() {
        // Two ciphers never share cells, a clone shares its cipher's,
        // and each cipher's counts are filed under its own tier.
        let before = ops(Backend::Wide);
        let wide = crate::MemoryCipher::on(Backend::Wide, 6);
        let portable = crate::MemoryCipher::on(Backend::Portable, 6);
        let clone = wide.clone();
        let _ = clone.encrypt_block(0, 1, &[0; 64]);
        let _ = wide.keystream_batch(&[(0x40, 1), (0x80, 1)]);
        assert_eq!(wide.ops().keystream_calls, 3);
        assert_eq!(portable.ops(), OpsSnapshot::default());
        assert!(!std::ptr::eq(&*wide.counts, &*portable.counts));
        assert_eq!(std::mem::align_of::<CipherCounts>(), 64);
        drop((wide, clone));
        assert!(ops(Backend::Wide).keystream_calls >= before.keystream_calls + 3);
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
