//! The crypto tier as the process sees it from outside the crate. The
//! tier-pair bit-identity checks drive crate-private kernels and build
//! one cipher per tier, so they live in the crate (`src/crosscheck.rs`);
//! this file keeps what the public door alone can check.

use ame_crypto::backend::{self, Backend};

#[test]
fn active_backend_obeys_forced_override() {
    // The override is only readable at first resolution, so this test
    // asserts conditionally: if the env forced a tier, the resolved
    // backend must be exactly that tier — forcing an unsatisfiable tier
    // aborts the process at startup, so reaching this assertion at all
    // means resolution succeeded and must not have degraded. CI runs
    // the whole suite under each forced leg.
    let want = std::env::var("AME_CRYPTO_BACKEND").unwrap_or_default();
    let active = backend::active();
    match want.to_ascii_lowercase().as_str() {
        "portable" | "soft" | "reference" => assert_eq!(active, Backend::Portable),
        "accel" | "accelerated" | "aesni" => assert_eq!(active, Backend::Accelerated),
        "wide" | "vaes" => assert_eq!(active, Backend::Wide),
        _ => {}
    }
    if active.is_wide() {
        assert!(backend::wide_available());
    }
    if active.is_accelerated() {
        assert!(backend::accel_available());
    }
}
