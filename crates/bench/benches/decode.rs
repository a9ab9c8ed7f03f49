//! Microbenchmark for Section 5.3: counter decode cost.
//!
//! The paper synthesized the decode unit (bit extraction + add) to 2
//! cycles at up to 4 GHz in 45 nm SOI. The delta schemes hold each group
//! as its packed line, so a counter read is that decode; this benchmark
//! measures it for both layouts, together with a write (one field
//! rewritten) and the metadata image (the line as held). The simulator
//! charges the paper's 2-cycle figure.

use ame_bench::micro::bench;
use ame_counters::delta::DeltaCounters;
use ame_counters::dual::DualLengthDeltaCounters;
use ame_counters::CounterScheme;
use std::hint::black_box;

/// Writes block `i` of group 0 `(3 * i) % modulus` times, then `extra`
/// more times to block 20.
fn spread(scheme: &mut impl CounterScheme, modulus: u64, extra: usize) {
    for i in 0..64 {
        for _ in 0..(3 * i) % modulus {
            scheme.record_write(i);
        }
    }
    for _ in 0..extra {
        scheme.record_write(20);
    }
}

fn main() {
    let mut flat = DeltaCounters::default();
    spread(&mut flat, 128, 0);
    // Delta-group 1 expanded.
    let mut dual = DualLengthDeltaCounters::default();
    spread(&mut dual, 64, 700);
    assert_eq!(dual.expanded_group(20), Some(1));

    bench("decode_flat_counter", || flat.counter(black_box(17)));
    bench("decode_dual_counter", || dual.counter(black_box(20)));
    bench("flat_metadata_image", || {
        flat.metadata_block_image(black_box(0))
    });
    bench("dual_metadata_image", || {
        dual.metadata_block_image(black_box(0))
    });
    // A sequential sweep: 63 in-place increments and one reset per 64
    // writes.
    let mut flat_writes = DeltaCounters::default();
    let mut block = 0;
    bench("flat_record_write_sweep", || {
        block = (block + 1) % 64;
        flat_writes.record_write(black_box(block))
    });
}
