//! Golden-value regression tests for the analytic experiments: these
//! numbers are closed-form (no simulation), so any change is a real
//! behavioural change and should be reviewed, not absorbed.

use ame::counters::delta::DeltaCounters;
use ame::counters::dual::DualLengthDeltaCounters;
use ame::counters::monolithic::MonolithicCounters;
use ame::counters::split::SplitCounters;
use ame::counters::storage::{mac_in_ecc_breakdown, separate_mac_breakdown};
use ame::counters::CounterScheme;
use ame::tree::TreeGeometry;

const REGION: u64 = 512 << 20;

#[test]
fn golden_storage_fractions() {
    // Counter storage per scheme, bits per 64-byte block.
    assert_eq!(MonolithicCounters::default().bits_per_block(), 56.0);
    assert_eq!(SplitCounters::default().bits_per_block(), 8.0);
    assert_eq!(DeltaCounters::default().bits_per_block(), 7.875);
    assert_eq!(DualLengthDeltaCounters::default().bits_per_block(), 7.90625);
}

#[test]
fn golden_tree_geometry_512mb() {
    let mono = TreeGeometry::for_region(REGION, 64.0);
    assert_eq!(mono.counter_bytes(), 64 << 20);
    assert_eq!(
        mono.level_bytes,
        vec![64 << 20, 8 << 20, 1 << 20, 128 << 10, 16 << 10, 2 << 10]
    );
    assert_eq!(mono.off_chip_levels(), 5);
    assert_eq!(
        mono.tree_node_bytes(),
        (8 << 20) + (1 << 20) + (128 << 10) + (16 << 10)
    );

    let delta = TreeGeometry::for_region(REGION, 8.0);
    assert_eq!(delta.counter_bytes(), 8 << 20);
    assert_eq!(
        delta.level_bytes,
        vec![8 << 20, 1 << 20, 128 << 10, 16 << 10, 2 << 10]
    );
    assert_eq!(delta.off_chip_levels(), 4);
}

#[test]
fn golden_figure1_breakdown() {
    let mono_geo = TreeGeometry::for_region(REGION, 64.0);
    let delta_geo = TreeGeometry::for_region(REGION, 8.0);

    let baseline = separate_mac_breakdown(56.0, false, mono_geo.tree_overhead_fraction());
    assert_eq!(baseline.counters, 0.109375);
    assert_eq!(baseline.macs, 0.109375);
    assert_eq!(baseline.tree, 0.017852783203125);
    assert_eq!(baseline.encryption_metadata(), 0.236602783203125);

    let optimized = mac_in_ecc_breakdown(7.875, delta_geo.tree_overhead_fraction());
    assert!((optimized.counters - 0.015380859375).abs() < 1e-15);
    assert_eq!(optimized.macs, 0.0);
    assert_eq!(optimized.encryption_metadata(), 0.017608642578125);

    // The headline: 23.66% -> 1.76%, a 13.4x reduction.
    let factor = baseline.encryption_metadata() / optimized.encryption_metadata();
    assert!(
        (factor - 13.4367).abs() < 0.001,
        "reduction factor {factor}"
    );
}

#[test]
fn golden_flip_and_check_bounds() {
    use ame::engine::correction::{MAX_CHECKS_DOUBLE, MAX_CHECKS_SINGLE};
    assert_eq!(MAX_CHECKS_SINGLE, 512);
    assert_eq!(MAX_CHECKS_DOUBLE, 130_816); // 512 choose 2
    assert_eq!(MAX_CHECKS_DOUBLE, 512 * 511 / 2);
}

#[test]
fn golden_decode_latency() {
    assert_eq!(ame::counters::packing::DECODE_LATENCY_CYCLES, 2);
}

/// The Figure 6 layout ends at bit 507: the last block's delta at the
/// widest its expanded delta-group allows sets the top overflow bit, and
/// no bit above it.
#[test]
fn golden_dual_layout_bits() {
    let mut dual = DualLengthDeltaCounters::default();
    for _ in 0..1023 {
        dual.record_write(63);
    }
    assert_eq!(dual.expanded_group(0), Some(3));
    assert_eq!(dual.stats().reencryptions, 0);
    let image = dual.metadata_block_image(0);
    let top = (0..512)
        .rev()
        .find(|&bit| image[bit / 8] >> (bit % 8) & 1 == 1);
    assert_eq!(top.map(|bit| bit + 1), Some(507));
}
