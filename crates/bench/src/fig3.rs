//! Figure 3: error detection/correction coverage of standard SEC-DED vs
//! the paper's MAC-based ECC, across fault shapes.

use ame_ecc::fault::{FaultOutcome, FaultPattern};
use ame_engine::correction::{evaluate_fault, Scheme};

/// One row of the Figure 3 matrix.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Human-readable fault description.
    pub fault: String,
    /// The injected pattern.
    pub pattern: FaultPattern,
    /// Outcome under standard per-word SEC-DED.
    pub standard: FaultOutcome,
    /// Outcome under MAC-in-ECC with 2-flip correction budget.
    pub mac_ecc: FaultOutcome,
}

/// The fault shapes Figure 3 discusses.
#[must_use]
pub fn fault_set() -> Vec<(String, FaultPattern)> {
    vec![
        (
            "no fault".into(),
            FaultPattern::Mixed {
                data_bits: vec![],
                sideband_bits: vec![],
            },
        ),
        ("1 bit".into(), FaultPattern::SingleBit { bit: 200 }),
        (
            "2 bits, same 8-byte word".into(),
            FaultPattern::DoubleBitSameWord {
                word: 2,
                bits: (5, 40),
            },
        ),
        (
            "2 bits, different words".into(),
            FaultPattern::DoubleBitCrossWords {
                first: (0, 3),
                second: (5, 17),
            },
        ),
        (
            "4 bits, one per word".into(),
            FaultPattern::ScatteredSingles {
                words: 4,
                bit_in_word: 21,
            },
        ),
        (
            "8 bits, one per word".into(),
            FaultPattern::ScatteredSingles {
                words: 8,
                bit_in_word: 33,
            },
        ),
        (
            "3-bit burst in one word".into(),
            FaultPattern::Burst { start: 64, len: 3 },
        ),
        (
            "x8 chip failure (64 bits)".into(),
            FaultPattern::ChipFailure { chip: 2 },
        ),
        (
            "1 bit in MAC/ECC bits".into(),
            FaultPattern::Sideband { bits: vec![12] },
        ),
        (
            "2 bits in MAC/ECC bits".into(),
            FaultPattern::Sideband { bits: vec![12, 50] },
        ),
        (
            "1 data bit + 1 MAC bit".into(),
            FaultPattern::Mixed {
                data_bits: vec![100],
                sideband_bits: vec![7],
            },
        ),
    ]
}

/// Evaluates the full matrix.
#[must_use]
pub fn compute() -> Vec<Fig3Row> {
    fault_set()
        .into_iter()
        .map(|(fault, pattern)| Fig3Row {
            standard: evaluate_fault(Scheme::StandardEcc, &pattern),
            mac_ecc: evaluate_fault(Scheme::MacEcc { max_flips: 2 }, &pattern),
            fault,
            pattern,
        })
        .collect()
}

fn cell(outcome: FaultOutcome) -> &'static str {
    match outcome {
        FaultOutcome::NoError => "clean",
        FaultOutcome::Corrected => "CORRECTED",
        FaultOutcome::DetectedUncorrectable => "detected",
        FaultOutcome::Miscorrected => "MISCORRECTED!",
        FaultOutcome::Undetected => "UNDETECTED!",
    }
}

fn outcome_name(outcome: FaultOutcome) -> &'static str {
    match outcome {
        FaultOutcome::NoError => "no_error",
        FaultOutcome::Corrected => "corrected",
        FaultOutcome::DetectedUncorrectable => "detected_uncorrectable",
        FaultOutcome::Miscorrected => "miscorrected",
        FaultOutcome::Undetected => "undetected",
    }
}

/// Serialises the matrix for `results/fig3.json`.
#[must_use]
pub fn to_json(rows: &[Fig3Row]) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("flip_budget", 2u64);
    let mut out = Vec::new();
    for row in rows {
        let mut obj = Json::object();
        obj.push("fault", row.fault.as_str());
        obj.push("fault_weight", row.pattern.weight() as u64);
        obj.push("sec_ded", outcome_name(row.standard));
        obj.push("mac_ecc", outcome_name(row.mac_ecc));
        obj.push("sec_ded_safe", Json::Bool(row.standard.is_safe()));
        obj.push("mac_ecc_safe", Json::Bool(row.mac_ecc.is_safe()));
        out.push(obj);
    }
    crate::results::envelope("fig3", params, Json::Arr(out))
}

/// The one-line metric `repro_all` quotes for this experiment.
#[must_use]
pub fn key_metric(rows: &[Fig3Row]) -> String {
    let corrected = rows
        .iter()
        .filter(|r| r.mac_ecc == FaultOutcome::Corrected)
        .count();
    let unsafe_std = rows.iter().filter(|r| !r.standard.is_safe()).count();
    format!(
        "{} faults: MAC-ECC corrects {}, 0 silent; SEC-DED {} unsafe",
        rows.len(),
        corrected,
        unsafe_std
    )
}

/// Prints the matrix in the shape of Figure 3.
pub fn print() {
    print_rows(&compute());
}

/// Like [`print()`], from precomputed rows.
pub fn print_rows(rows: &[Fig3Row]) {
    println!("=== Figure 3: fault coverage, standard SEC-DED vs MAC-based ECC ===");
    println!(
        "{:<28} {:>16} {:>16}",
        "fault", "SEC-DED(72,64)", "MAC+flip&check"
    );
    for row in rows {
        println!(
            "{:<28} {:>16} {:>16}",
            row.fault,
            cell(row.standard),
            cell(row.mac_ecc)
        );
    }
    println!(
        "\nkey claims: same-word double flips are only *detected* by SEC-DED but\n\
         *corrected* by MAC-ECC; scattered multi-word flips are corrected by\n\
         SEC-DED but exceed the flip-and-check budget; beyond 2 flips per word\n\
         SEC-DED can silently miscorrect, while the 56-bit MAC detects any\n\
         number of data flips (Section 3.3: \"full error detection\")."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_figure3_claims() {
        let rows = compute();
        let by_name = |name: &str| {
            rows.iter()
                .find(|r| r.fault.starts_with(name))
                .expect("row present")
        };

        // Single-bit: both correct.
        assert_eq!(by_name("1 bit").standard, FaultOutcome::Corrected);
        assert_eq!(by_name("1 bit").mac_ecc, FaultOutcome::Corrected);

        // Same-word double: the paper's MAC-ECC advantage.
        let dw = by_name("2 bits, same");
        assert_eq!(dw.standard, FaultOutcome::DetectedUncorrectable);
        assert_eq!(dw.mac_ecc, FaultOutcome::Corrected);

        // Cross-word double: both correct (SEC-DED per word; MAC via the
        // double-flip search).
        let cw = by_name("2 bits, different");
        assert_eq!(cw.standard, FaultOutcome::Corrected);
        assert_eq!(cw.mac_ecc, FaultOutcome::Corrected);

        // Scattered 8 singles: standard ECC's advantage.
        let sc = by_name("8 bits");
        assert_eq!(sc.standard, FaultOutcome::Corrected);
        assert_eq!(sc.mac_ecc, FaultOutcome::DetectedUncorrectable);

        // MAC-based ECC is never silent: any number of data flips breaks
        // the 56-bit MAC (Section 3.3 "full error detection").
        for row in &rows {
            assert!(row.mac_ecc.is_safe(), "{}: mac-ecc unsafe", row.fault);
        }
        // Standard SEC-DED is safe within its guarantee (<= 2 flips per
        // word + side-band), but a 3-bit burst may silently miscorrect —
        // exactly the gap the MAC closes.
        for row in &rows {
            if row.pattern.weight() <= 2 {
                assert!(row.standard.is_safe(), "{}: standard unsafe", row.fault);
            }
        }
        let burst = by_name("3-bit burst");
        assert!(
            !burst.standard.is_safe() || burst.standard == FaultOutcome::DetectedUncorrectable,
            "3-bit burst exceeds the SEC-DED guarantee"
        );

        // Chipkill territory: the MAC detects the dead lane outright;
        // per-word SEC-DED is out of its depth (may even miscorrect).
        let chip = by_name("x8 chip failure");
        assert_eq!(chip.mac_ecc, FaultOutcome::DetectedUncorrectable);
        assert_ne!(chip.standard, FaultOutcome::Corrected);
    }

    #[test]
    fn mac_sideband_faults_handled() {
        let rows = compute();
        let single = rows
            .iter()
            .find(|r| r.fault == "1 bit in MAC/ECC bits")
            .unwrap();
        // One flipped MAC bit is repaired by the 7-bit MAC parity.
        assert_eq!(single.mac_ecc, FaultOutcome::Corrected);
        let double = rows
            .iter()
            .find(|r| r.fault == "2 bits in MAC/ECC bits")
            .unwrap();
        // Two flipped MAC bits are detected (SEC-DED over the MAC).
        assert_eq!(double.mac_ecc, FaultOutcome::DetectedUncorrectable);
    }
}
