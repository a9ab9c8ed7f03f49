//! The harness's own arithmetic: schedules, histogram, laps, spans,
//! quartiles, JSON and the comparison verdicts.

use bench_ladder::compare::{judge, Verdict};
use bench_ladder::hist::LogLinHist;
use bench_ladder::json::{self, Json};
use bench_ladder::laps::{lap_rates, median, quartiles, Laps};
use bench_ladder::schedule::{payload, Partition, Rng, Stream};
use bench_ladder::spans::{self_time_by_layer, self_times, Layer, Tracer};
use bench_ladder::spec::{Sizing, Workload, MIN_LAPS, TRACED_LAP_DIVISOR};

#[test]
fn schedule_is_a_pure_function_of_the_seed() {
    let run = |seed| {
        let mut p = Partition::new(seed, 1, 2, 1 << 12, 30);
        let ops: Vec<_> = (0..1000).map(|_| p.next_op()).collect();
        let writes: Vec<_> = ops.iter().map(|o| p.model.write_payload(o.block)).collect();
        (ops, writes)
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7).0, run(8).0);

    let stream = |seed| {
        let mut s = Stream::new(seed, 1 << 12);
        (0..300).map(|_| s.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(stream(7), stream(7));
}

#[test]
fn partitions_are_disjoint_and_honour_the_mix() {
    let mut a = Partition::new(3, 0, 2, 1 << 12, 30);
    let mut b = Partition::new(3, 1, 2, 1 << 12, 30);
    let mut writes = 0;
    for _ in 0..20_000 {
        let (x, y) = (a.next_op(), b.next_op());
        assert!(x.block < 2048 && (2048..4096).contains(&y.block));
        writes += u32::from(x.write);
    }
    assert!(
        (5_600..6_400).contains(&writes),
        "30 % writes, got {writes}"
    );
}

#[test]
fn model_tracks_versions_per_block() {
    let mut p = Partition::new(9, 0, 1, 64, 50);
    assert_eq!(p.model.expected(5), payload(9, 5, 1));
    assert_eq!(p.model.write_payload(5), payload(9, 5, 2));
    assert_eq!(p.model.expected(5), payload(9, 5, 2));
    assert_eq!(p.model.expected(6), p.model.initial(6));
    assert_ne!(payload(9, 5, 2), payload(9, 6, 2));
    p.model.corrupt_one();
    assert_ne!(p.model.expected(0), p.model.initial(0));
}

#[test]
fn stream_writes_then_reads_each_chunk_in_address_order() {
    let mut s = Stream::new(1, 256);
    let first = s.next_op();
    assert!(first.write);
    let second = s.next_op();
    assert_eq!(
        (second.first_block, second.write),
        (first.first_block, false)
    );
    let third = s.next_op();
    assert_eq!(third.first_block, (first.first_block + 64) % 256);
}

#[test]
fn histogram_quantiles_are_within_one_percent_of_exact() {
    let mut rng = Rng::new(42);
    let mut hist = LogLinHist::new();
    let mut exact = Vec::new();
    for _ in 0..200_000 {
        // Log-uniform over nine decades, like latencies with a tail.
        let r = rng.next_u64();
        let v = 50 + ((r >> 8) % 1_000) * (1 << ((r & 0xff) % 20));
        hist.record(v);
        exact.push(v);
    }
    exact.sort_unstable();
    for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
        let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
        let want = exact[rank - 1] as f64;
        let got = hist.quantile(q);
        assert!(
            (got - want).abs() <= 0.01 * want,
            "q{q}: histogram {got}, exact {want}"
        );
    }
    assert_eq!(hist.count(), 200_000);
}

#[test]
fn histogram_is_exact_below_128_and_merges() {
    let mut a = LogLinHist::new();
    let mut b = LogLinHist::new();
    for v in 0..100 {
        a.record(v);
        b.record(v + 100);
    }
    assert_eq!(a.quantile(0.5), 49.0);
    a.merge(&b);
    assert_eq!(a.count(), 200);
    assert_eq!(a.quantile(0.25), 49.0);
    assert_eq!(a.samples_beyond(0.99), 2);
    assert_eq!(LogLinHist::new().quantile(0.5), 0.0);
}

#[test]
fn laps_tile_the_measured_phase() {
    let mut laps = Laps::new(10, 3, 1_000);
    let mut now = 1_000;
    let mut cuts = 0;
    for _ in 0..40 {
        now += 7;
        cuts += u32::from(laps.tick(now, 1));
    }
    assert_eq!(cuts, 3);
    assert!(laps.done());
    assert_eq!(laps.durations(), &[70, 70, 70]);
    assert_eq!((laps.first_start(), laps.last_end()), (1_000, 1_210));
    assert_eq!(laps.total_ops(), 30);
}

#[test]
fn a_batched_completion_carries_its_remainder_into_the_next_lap() {
    let mut laps = Laps::new(100, 2, 0);
    assert!(!laps.tick(10, 64));
    assert!(laps.tick(20, 64));
    assert!(!laps.tick(30, 64));
    assert!(laps.tick(40, 64));
    assert_eq!(laps.durations(), &[20, 20]);
}

#[test]
fn concurrent_threads_add_their_lap_rates() {
    let mut a = Laps::new(1_000, 2, 0);
    let mut b = Laps::new(1_000, 2, 0);
    a.tick(1_000_000, 1_000);
    a.tick(3_000_000, 1_000);
    b.tick(2_000_000, 1_000);
    b.tick(4_000_000, 1_000);
    let rates = lap_rates(&[&a, &b]);
    assert_eq!(rates, vec![1_500_000.0, 1_000_000.0]);
    assert_eq!(median(&rates), 1_250_000.0);
}

#[test]
fn lap_sizes_are_fixed_per_workload_and_the_seconds_set_the_phase() {
    for w in Workload::ALL {
        // Untraced: a lap is `lap_ms` of the nominal rate whatever
        // `--seconds` says, in whole submission units on every
        // connection; `--seconds` is how long laps are driven.
        let (a, b) = (
            Sizing::new(w, 15, false, false),
            Sizing::new(w, 30, false, false),
        );
        assert_eq!(a.lap_ops, b.lap_ops);
        assert_eq!((a.phase_seconds, b.phase_seconds), (15, 30));
        assert_eq!(a.min_laps, MIN_LAPS);
        let nominal = w.nominal_ops_per_s() * w.lap_ms() / 1000;
        assert!(
            a.lap_ops <= nominal && a.lap_ops * 100 >= nominal * 97,
            "{}",
            w.name()
        );
        assert_eq!(a.lap_ops % (128 * w.partitions()), 0);
        // Traced: five laps per rung, each `--seconds / 32` of it.
        let traced = Sizing::new(w, 32, true, false);
        let nominal = w.nominal_ops_per_s() * 32 / TRACED_LAP_DIVISOR;
        assert!(traced.lap_ops <= nominal && traced.lap_ops * 100 >= nominal * 97);
        let smoke = Sizing::new(w, 12, false, true);
        assert_eq!((smoke.min_laps, smoke.phase_seconds), (1, 0));
        assert_eq!(smoke.setup_samples, 1);
    }
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn self_time_is_duration_minus_the_union_of_children() {
    let mut t = Tracer::new(0, 16);
    let rung = t.open(Layer::Engine, 0, 0, 0);
    let lap = t.open(Layer::Harness, 0, rung, 100);
    // Two overlapping pipelined calls and one apart; one pokes out of
    // the lap at the front.
    t.record(Layer::Session, 0, lap, 90, 150);
    t.record(Layer::Session, 1, lap, 140, 200);
    t.record(Layer::Session, 2, lap, 300, 350);
    t.finish(lap, 400);
    t.finish(rung, 1_000);
    let own = self_times(t.spans());
    // Lap: 300 long, children cover [100,200] and [300,350].
    assert_eq!(own[&lap], 300 - 150);
    // Rung: 1000 long, the lap covers 300 of it.
    assert_eq!(own[&rung], 700);
    let by_layer = self_time_by_layer(t.spans());
    assert_eq!(by_layer[&Layer::Session], 60 + 60 + 50);
    assert_eq!(by_layer[&Layer::Harness], 150);
}

#[test]
fn json_reader_reads_what_the_writer_writes() {
    let mut inner = Json::object();
    inner.push("value", Json::F64(1.25));
    inner.push("unit", "us");
    let mut doc = Json::object();
    doc.push("correct", Json::Bool(true));
    doc.push("attempted", Json::U64(12));
    doc.push("name", "a \"quoted\" \\ name\n");
    doc.push("metrics", inner);
    doc.push("list", Json::Arr(vec![Json::I64(-3), Json::Null]));
    for text in [doc.render(), doc.render_compact()] {
        assert_eq!(json::parse(&text).unwrap(), doc, "{text}");
    }
    assert!(json::parse("{\"a\": 1} x").is_err());
    assert!(json::parse("{\"a\" 1}").is_err());
    assert_eq!(
        json::get(&doc, "metrics")
            .and_then(|m| json::get(m, "value"))
            .and_then(json::as_f64),
        Some(1.25)
    );
}

#[test]
fn compare_judges_by_bound_and_spread() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    let same = [102.0, 103.0, 101.0, 102.5, 101.5];
    assert_eq!(judge(&base, &same, false, 0.05).1, Verdict::Same);
    let worse = [110.0, 111.0, 109.0, 110.5, 109.5];
    assert_eq!(judge(&base, &worse, false, 0.05).1, Verdict::Worse);
    // The same numbers are an improvement when higher is better.
    assert_eq!(judge(&base, &worse, true, 0.05).1, Verdict::Better);
    // A spread wider than the bound leaves the cell unresolved...
    let noisy = [80.0, 120.0, 100.0, 90.0, 111.0];
    assert_eq!(judge(&base, &noisy, false, 0.05).1, Verdict::Unresolved);
    // ...unless every new run beats every base run.
    let clearly = [50.0, 70.0, 60.0, 55.0, 65.0];
    assert_eq!(judge(&base, &clearly, false, 0.05).1, Verdict::Better);
}
