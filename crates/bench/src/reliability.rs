//! Monte-Carlo reliability study (extension of Section 3.4).
//!
//! The paper argues brute-force MAC correction is practical because DRAM
//! faults are rare, citing Meza et al.'s fleet study: "the majority of
//! the servers affected by DRAM errors have at most 9 correctable errors
//! per month". This experiment turns that argument into numbers: faults
//! arrive as a Poisson process over a protected region, accumulate
//! between scrub passes, and each affected block is pushed through the
//! protection machinery. Reported per scheme: corrected blocks, detected
//! -but-uncorrectable blocks (machine-check downtime), and *silent*
//! corruptions (the outcome that must never happen for MAC-based ECC).

use ame_ecc::fault::{FaultOutcome, FaultPattern};
use ame_engine::correction::{evaluate_fault, Scheme};
use ame_prng::StdRng;

/// Configuration of one Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityConfig {
    /// Mean fault (bit-flip) arrivals per simulated month over the region.
    pub faults_per_month: f64,
    /// Simulated months.
    pub months: u32,
    /// Scrub passes per month (faults accumulate between passes).
    pub scrubs_per_month: u32,
    /// Blocks in the protected region (faults pick one uniformly).
    pub blocks: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReliabilityConfig {
    /// Meza-style incidence: ~9 correctable errors/month over a region of
    /// 64 Ki blocks (4 MB of hot memory), daily scrubbing, 10 years.
    fn default() -> Self {
        Self {
            faults_per_month: 9.0,
            months: 120,
            scrubs_per_month: 30,
            blocks: 65_536,
            seed: 7,
        }
    }
}

/// Aggregate outcome counts of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityReport {
    /// Total injected bit flips.
    pub flips: u64,
    /// Blocks that accumulated >= 1 flip within a scrub interval.
    pub faulty_blocks: u64,
    /// Blocks fully repaired.
    pub corrected: u64,
    /// Blocks detected but not repairable (machine-check event).
    pub detected: u64,
    /// Silent corruptions (miscorrected or undetected).
    pub silent: u64,
}

impl ReliabilityReport {
    /// Fraction of faulty blocks fully repaired.
    #[must_use]
    pub fn repair_rate(&self) -> f64 {
        if self.faulty_blocks == 0 {
            1.0
        } else {
            self.corrected as f64 / self.faulty_blocks as f64
        }
    }
}

/// Draws a Poisson-distributed count (Knuth's method; fine for small
/// means).
fn poisson(rng: &mut StdRng, mean: f64) -> u64 {
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.next_f64();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Runs the Monte-Carlo campaign for one protection scheme.
#[must_use]
pub fn simulate(scheme: Scheme, cfg: ReliabilityConfig) -> ReliabilityReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = ReliabilityReport::default();
    let intervals = u64::from(cfg.months) * u64::from(cfg.scrubs_per_month);
    let mean_per_interval = cfg.faults_per_month / f64::from(cfg.scrubs_per_month);

    for _ in 0..intervals {
        let n = poisson(&mut rng, mean_per_interval);
        if n == 0 {
            continue;
        }
        // Faults land on blocks; flips within one block accumulate into
        // one pattern evaluated at the scrub pass.
        let mut per_block: std::collections::HashMap<u64, (Vec<u32>, Vec<u32>)> =
            std::collections::HashMap::new();
        for _ in 0..n {
            report.flips += 1;
            let block = rng.gen_range(0..cfg.blocks);
            let entry = per_block.entry(block).or_default();
            // 512 data bits : 64 side-band bits, uniformly by area.
            if rng.gen_range(0..576) < 512 {
                entry.0.push(rng.gen_range(0..512));
            } else {
                entry.1.push(rng.gen_range(0..64));
            }
        }
        for (_, (mut data_bits, mut sideband_bits)) in per_block {
            data_bits.sort_unstable();
            data_bits.dedup();
            sideband_bits.sort_unstable();
            sideband_bits.dedup();
            if data_bits.is_empty() && sideband_bits.is_empty() {
                continue;
            }
            report.faulty_blocks += 1;
            let pattern = FaultPattern::Mixed {
                data_bits,
                sideband_bits,
            };
            match evaluate_fault(scheme, &pattern) {
                FaultOutcome::Corrected | FaultOutcome::NoError => report.corrected += 1,
                FaultOutcome::DetectedUncorrectable => report.detected += 1,
                FaultOutcome::Miscorrected | FaultOutcome::Undetected => report.silent += 1,
            }
        }
    }
    report
}

/// One (scheme, fault-rate) cell of the study.
#[derive(Debug, Clone, Copy)]
pub struct MatrixRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Mean faults per month used for this run.
    pub faults_per_month: f64,
    /// The campaign's outcome counts.
    pub report: ReliabilityReport,
}

/// Runs both schemes at the standard fault intensities.
#[must_use]
pub fn compute(cfg: ReliabilityConfig) -> Vec<MatrixRow> {
    let mut rows = Vec::new();
    for rate in [9.0, 100.0, 1000.0] {
        let cfg = ReliabilityConfig {
            faults_per_month: rate,
            ..cfg
        };
        for (name, scheme) in [
            ("SEC-DED", Scheme::StandardEcc),
            ("MAC-in-ECC", Scheme::MacEcc { max_flips: 2 }),
        ] {
            rows.push(MatrixRow {
                scheme: name,
                faults_per_month: rate,
                report: simulate(scheme, cfg),
            });
        }
    }
    rows
}

/// Serialises the study for `results/reliability.json`.
#[must_use]
pub fn to_json(cfg: ReliabilityConfig, rows: &[MatrixRow]) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("months", u64::from(cfg.months));
    params.push("scrubs_per_month", u64::from(cfg.scrubs_per_month));
    params.push("blocks", cfg.blocks);
    params.push("seed", cfg.seed);
    let mut out = Vec::new();
    for row in rows {
        let r = &row.report;
        let mut obj = Json::object();
        obj.push("scheme", row.scheme);
        obj.push("faults_per_month", row.faults_per_month);
        obj.push("flips", r.flips);
        obj.push("faulty_blocks", r.faulty_blocks);
        obj.push("corrected", r.corrected);
        obj.push("detected_uncorrectable", r.detected);
        obj.push("silent", r.silent);
        obj.push("repair_rate", r.repair_rate());
        out.push(obj);
    }
    crate::results::envelope("reliability", params, Json::Arr(out))
}

/// The one-line metric `repro_all` quotes for this experiment.
#[must_use]
pub fn key_metric(rows: &[MatrixRow]) -> String {
    let mac_silent: u64 = rows
        .iter()
        .filter(|r| r.scheme == "MAC-in-ECC")
        .map(|r| r.report.silent)
        .sum();
    let flips: u64 = rows.iter().map(|r| r.report.flips).sum();
    format!("{flips} flips injected, MAC-in-ECC silent corruptions: {mac_silent}")
}

/// Prints [`compute`]'s study for both schemes at a few fault
/// intensities.
pub fn print_rows(cfg: ReliabilityConfig, rows: &[MatrixRow]) {
    println!(
        "=== Reliability Monte-Carlo: {} months, {} scrubs/month, {} blocks ===",
        cfg.months, cfg.scrubs_per_month, cfg.blocks
    );
    println!(
        "{:<22} {:>8} {:>8} {:>10} {:>9} {:>7} {:>12}",
        "scheme / faults/mo", "flips", "faulty", "corrected", "detected", "silent", "repair rate"
    );
    for row in rows {
        let r = &row.report;
        println!(
            "{:<22} {:>8} {:>8} {:>10} {:>9} {:>7} {:>11.2}%",
            format!("{} @ {}", row.scheme, row.faults_per_month),
            r.flips,
            r.faulty_blocks,
            r.corrected,
            r.detected,
            r.silent,
            r.repair_rate() * 100.0
        );
    }
    println!(
        "\nat field-reported fault rates (~9/month) both schemes repair\n\
         essentially everything; MAC-in-ECC additionally guarantees zero\n\
         silent corruptions at any rate (any data flip breaks the MAC)."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ReliabilityConfig {
        ReliabilityConfig {
            months: 12,
            blocks: 4096,
            ..ReliabilityConfig::default()
        }
    }

    #[test]
    fn field_rates_repair_everything() {
        for scheme in [Scheme::StandardEcc, Scheme::MacEcc { max_flips: 2 }] {
            let r = simulate(scheme, small());
            assert!(r.flips > 0, "campaign must inject faults");
            assert_eq!(r.silent, 0, "{scheme:?}");
            assert_eq!(r.repair_rate(), 1.0, "{scheme:?}: {r:?}");
        }
    }

    #[test]
    fn mac_scheme_never_silent_even_at_absurd_rates() {
        let cfg = ReliabilityConfig {
            faults_per_month: 5000.0,
            months: 2,
            scrubs_per_month: 2, // long intervals => multi-flip blocks
            blocks: 512,
            seed: 9,
        };
        let r = simulate(Scheme::MacEcc { max_flips: 2 }, cfg);
        assert!(
            r.detected > 0,
            "some blocks must exceed the correction budget: {r:?}"
        );
        assert_eq!(r.silent, 0, "{r:?}");
    }

    #[test]
    fn more_scrubbing_means_fewer_uncorrectables() {
        let base = ReliabilityConfig {
            faults_per_month: 2000.0,
            months: 3,
            blocks: 1024,
            seed: 11,
            scrubs_per_month: 1,
        };
        let rare = simulate(Scheme::MacEcc { max_flips: 2 }, base);
        let frequent = simulate(
            Scheme::MacEcc { max_flips: 2 },
            ReliabilityConfig {
                scrubs_per_month: 30,
                ..base
            },
        );
        assert!(
            frequent.detected < rare.detected,
            "daily scrubbing must reduce uncorrectables ({} vs {})",
            frequent.detected,
            rare.detected
        );
    }

    #[test]
    fn poisson_mean_roughly_right() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        let total: u64 = (0..n).map(|_| poisson(&mut rng, 3.0)).sum();
        let mean = total as f64 / f64::from(n);
        assert!((mean - 3.0).abs() < 0.2, "measured mean {mean}");
    }
}
