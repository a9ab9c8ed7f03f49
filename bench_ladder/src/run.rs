//! One invocation: the untraced run that measures the end-to-end
//! metrics, and the traced run that climbs the ladder rung by rung.

use crate::host::{peak_rss_mib, reset_peak_rss, timer_floor_ns, Provenance, Usage};
use crate::ladder::{
    components, counter_named, protocol_framing, schedule_prefix, shard_counter, shard_hist_mean,
    Components,
};
use crate::laps::{median, now_ns};
use crate::record::{Driven, TraceCtx, IDS_PER_THREAD};
use crate::report::{Checks, Report};
use crate::spans::{self_time_by_layer, write_csv, Layer, Span, Tracer};
use crate::spec::{Sizing, Workload, END_TO_END, PACED_OPS_PER_S, PER_LAYER, SHARDS};
use crate::workloads::engine::{drive_crypto_batch, drive_crypto_scalar, EngineSut, StreamSut};
use crate::workloads::store::StoreSut;
use crate::workloads::wire::WireSut;
use ame_crypto::backend::{self, OpsSnapshot};
use ame_engine::MemoryEncryptionEngine;
use ame_store::SessionStats;
use ame_telemetry::Snapshot;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The blocking-store rung's laps are this many times shorter than the
/// workload's.
const BLOCKING_LAP_DIVISOR: u64 = 16;

/// What `main` parsed from the command line.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// `--trace 1`.
    pub traced: bool,
    /// `--smoke`.
    pub smoke: bool,
    /// `--work-dir`: where the durable store lives during a run.
    pub work_dir: PathBuf,
    /// `--out`: where to save the result (and a traced run's spans).
    pub out: Option<PathBuf>,
    /// `--corrupt-model`: bump one expected version before the post-run
    /// read-back, which must then fail the run.
    pub corrupt_model: bool,
}

/// Everything a rung needs to know about the invocation.
struct Ctx {
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    /// This process's own directory under `--work-dir`.
    scratch: PathBuf,
    /// Durable directories handed out so far (each build gets a new one).
    dirs: std::cell::Cell<u32>,
}

impl Ctx {
    fn fresh_dir(&self) -> PathBuf {
        let n = self.dirs.get();
        self.dirs.set(n + 1);
        self.scratch.join(format!("store{n}"))
    }
}

/// Telemetry read around the top rung's traced drive.
#[derive(Default)]
struct Telemetry {
    /// Store shards (a store or server snapshot delta).
    shards: Option<Snapshot>,
    /// The session's own statistics.
    session: Option<SessionStats>,
    /// Reopen time after the crash, milliseconds.
    reopen_ms: Option<f64>,
}

/// The rung a workload's end-to-end metrics are measured at.
trait TopRung: Sized {
    const LAYER: Layer;
    fn build(ctx: &Ctx) -> Result<Self, String>;
    fn drive(&mut self, ctx: &Ctx, laps: usize, trace: Option<TraceCtx>) -> Driven;
    /// Telemetry snapshot of the layers below, if they publish one.
    fn snapshot(&self) -> Option<Snapshot> {
        None
    }
    /// The engines, when the rung is the engine itself.
    fn engines(&self) -> Option<Vec<&MemoryEncryptionEngine>> {
        None
    }
    /// Statistics of the last drive's session, if the rung has one.
    fn session_stats(&mut self) -> Option<SessionStats> {
        None
    }
    fn corrupt_model(&mut self);
    /// Post-run checks: full read-back (after crash + reopen on the
    /// durable workload), the layer's own verification sweep, then the
    /// fault injections.
    fn verify(&mut self, checks: &mut Checks, telemetry: &mut Telemetry);
    fn teardown(self);
}

struct EngineRandomTop(EngineSut);

impl TopRung for EngineRandomTop {
    const LAYER: Layer = Layer::Engine;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        EngineSut::build(ctx.workload, ctx.seed, &ctx.sizing, 1).map(Self)
    }

    fn drive(&mut self, ctx: &Ctx, laps: usize, trace: Option<TraceCtx>) -> Driven {
        self.0.drive(&ctx.sizing, laps, trace)
    }

    fn engines(&self) -> Option<Vec<&MemoryEncryptionEngine>> {
        Some(self.0.engines().iter().collect())
    }

    fn corrupt_model(&mut self) {
        self.0.parts[0].model.corrupt_one();
    }

    fn verify(&mut self, checks: &mut Checks, _: &mut Telemetry) {
        let blocks: u64 = self.0.parts.iter().map(|p| p.blocks()).sum();
        checks.zero("read-back of every block", self.0.read_back(), blocks);
        checks.add(
            "bit flip corrected, bad MAC refused",
            self.0.fault_gate().map(|()| "both".into()),
        );
    }

    fn teardown(self) {}
}

struct StreamTop(StreamSut);

impl TopRung for StreamTop {
    const LAYER: Layer = Layer::Engine;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        StreamSut::build(ctx.seed, &ctx.sizing).map(Self)
    }

    fn drive(&mut self, ctx: &Ctx, laps: usize, trace: Option<TraceCtx>) -> Driven {
        self.0.drive(&ctx.sizing, laps, trace)
    }

    fn engines(&self) -> Option<Vec<&MemoryEncryptionEngine>> {
        Some(vec![self.0.engine()])
    }

    fn corrupt_model(&mut self) {
        self.0.stream.model.corrupt_one();
    }

    fn verify(&mut self, checks: &mut Checks, _: &mut Telemetry) {
        let blocks = self.0.stream.blocks();
        checks.zero("read-back of every block", self.0.read_back(), blocks);
        checks.add(
            "bit flip corrected, bad MAC refused",
            self.0.fault_gate().map(|()| "both".into()),
        );
    }

    fn teardown(self) {}
}

struct DurableTop {
    sut: StoreSut,
    session: Option<SessionStats>,
}

impl TopRung for DurableTop {
    const LAYER: Layer = Layer::Session;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        let dir = ctx.fresh_dir();
        StoreSut::build(ctx.workload, ctx.seed, &ctx.sizing, Some(&dir))
            .map(|sut| Self { sut, session: None })
    }

    fn drive(&mut self, ctx: &Ctx, laps: usize, trace: Option<TraceCtx>) -> Driven {
        let (driven, stats) = self.sut.drive_session(&ctx.sizing, laps, trace);
        self.session = Some(stats);
        driven
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.sut.telemetry())
    }

    fn session_stats(&mut self) -> Option<SessionStats> {
        self.session.take()
    }

    fn corrupt_model(&mut self) {
        self.sut.parts[0].model.corrupt_one();
    }

    fn verify(&mut self, checks: &mut Checks, telemetry: &mut Telemetry) {
        let reopened = self.sut.crash_and_reopen();
        telemetry.reopen_ms = reopened.as_ref().ok().copied();
        checks.add(
            "crash + reopen",
            reopened.map(|ms| format!("recovered in {ms:.1} ms")),
        );
        let blocks: u64 = self.sut.parts.iter().map(|p| p.blocks()).sum();
        checks.zero(
            "every acked write re-read after reopen",
            self.sut.read_back(),
            blocks,
        );
        checks.add(
            "bit flip corrected, bad MAC refused",
            self.sut.fault_gate().map(|()| "both".into()),
        );
    }

    fn teardown(self) {
        self.sut.teardown();
    }
}

struct WireTop<const PACED: bool>(WireSut);

impl<const PACED: bool> TopRung for WireTop<PACED> {
    const LAYER: Layer = Layer::Wire;

    fn build(ctx: &Ctx) -> Result<Self, String> {
        WireSut::build(ctx.workload, ctx.seed, &ctx.sizing).map(Self)
    }

    fn drive(&mut self, ctx: &Ctx, laps: usize, trace: Option<TraceCtx>) -> Driven {
        if PACED {
            self.0.drive_paced(&ctx.sizing, laps, trace)
        } else {
            self.0.drive_closed(&ctx.sizing, laps, trace)
        }
    }

    fn snapshot(&self) -> Option<Snapshot> {
        Some(self.0.telemetry())
    }

    fn corrupt_model(&mut self) {
        self.0.parts[0].model.corrupt_one();
    }

    fn verify(&mut self, checks: &mut Checks, _: &mut Telemetry) {
        let blocks: u64 = self.0.parts.iter().map(|p| p.blocks()).sum();
        checks.zero("read-back of every block", self.0.read_back(), blocks);
        checks.add(
            "bit flip corrected, bad MAC refused",
            self.0.fault_gate().map(|()| "both".into()),
        );
    }

    fn teardown(self) {
        self.0.teardown();
    }
}

fn in_loop_checks(checks: &mut Checks, rung: &'static str, driven: &Driven) {
    checks.zero(rung, driven.mismatches, driven.attempted);
}

fn new_report(args: &RunArgs, sizing: Sizing, floor: f64) -> Report {
    let provenance = Provenance::gather(&args.work_dir, floor);
    Report {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        sizing,
        metrics: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failed: 0,
        checks: Checks::default(),
        provenance: if args.out.is_some() {
            provenance.with_toolchain()
        } else {
            provenance
        },
    }
}

fn tail_notes(report: &mut Report, driven: &Driven) {
    for (name, q) in [("tail.p99_us", 0.99), ("tail.p999_us", 0.999)] {
        report.note(name, driven.hist.quantile(q) / 1e3, "us");
        report.note(
            &format!("{name}.samples_beyond"),
            driven.hist.samples_beyond(q) as f64,
            "count",
        );
    }
    if driven.lag.count() > 0 {
        report.note("send_lag_p50_us", driven.lag.quantile(0.5) / 1e3, "us");
        report.note("send_lag_p99_us", driven.lag.quantile(0.99) / 1e3, "us");
    }
}

/// One set-up sample: `setup_rounds` times build, prefill and read
/// back, every build but the last torn down again (tear-downs are not
/// timed). Returns the last build and the sample in seconds.
fn setup_sample<T: TopRung>(ctx: &Ctx) -> Result<(T, f64), String> {
    let mut built: Option<T> = None;
    let mut ns = 0;
    for _ in 0..ctx.sizing.setup_rounds {
        if let Some(previous) = built.take() {
            previous.teardown();
        }
        let t0 = now_ns();
        built = Some(T::build(ctx)?);
        ns += now_ns() - t0;
    }
    Ok((built.ok_or("no set-up round")?, ns as f64 / 1e9))
}

/// What one measured lap leaves behind: a handful of numbers, so the
/// harness's memory does not grow with the run.
struct LapSample {
    ops_per_s: f64,
    p50_ns: f64,
    cpu_us_per_op: f64,
    peak_rss: f64,
}

fn untraced<T: TopRung>(args: &RunArgs, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // The first set-up serves the measured phase, so that the peak RSS
    // read after it is one system's and not what the allocator kept of
    // earlier ones; the other set-up samples follow the checks.
    let (mut top, first) = setup_sample::<T>(ctx)?;
    let mut samples = vec![first];
    let setup_peak_rss = peak_rss_mib();

    // One lap to warm up (checked like the others, not measured), then
    // a lap at a time until the phase has lasted `--seconds`: a slow
    // host gives fewer laps, not a longer run. Each lap starts and ends
    // with nothing in flight.
    let warm_up = top.drive(ctx, 1, None);
    in_loop_checks(
        &mut report.checks,
        "in-loop read checks, warm-up lap",
        &warm_up,
    );
    let phase_ns = ctx.sizing.phase_seconds * 1_000_000_000;
    let mut laps: Vec<LapSample> = Vec::with_capacity(256);
    let mut whole: Option<Driven> = None;
    let mut cpu_us = 0;
    let mut watermark_reset = true;
    let started = now_ns();
    while laps.len() < ctx.sizing.min_laps || now_ns() - started < phase_ns {
        // Set-up's transients (both shards growing their tables at
        // once, or not) are its own, and so are an earlier lap's: the
        // watermark restarts for every lap.
        watermark_reset &= reset_peak_rss();
        let before = Usage::now();
        let driven = top.drive(ctx, 1, None);
        let used = Usage::now().since(&before);
        laps.push(LapSample {
            ops_per_s: driven.ops_per_s(),
            p50_ns: driven.hist.quantile(0.5),
            cpu_us_per_op: used.cpu_us() as f64 / (driven.attempted - driven.failed).max(1) as f64,
            peak_rss: peak_rss_mib(),
        });
        cpu_us += used.cpu_us();
        match &mut whole {
            Some(whole) => whole.absorb(driven),
            None => whole = Some(driven),
        }
    }
    let driven = whole.ok_or("no lap was driven")?;

    if args.corrupt_model {
        top.corrupt_model();
    }
    in_loop_checks(&mut report.checks, "in-loop read checks", &driven);
    top.verify(&mut report.checks, &mut Telemetry::default());
    top.teardown();
    while samples.len() < ctx.sizing.setup_samples {
        let (again, sample) = setup_sample::<T>(ctx)?;
        again.teardown();
        samples.push(sample);
    }

    report.attempted = driven.attempted + warm_up.attempted;
    report.failed = driven.failed + warm_up.failed;
    let completed = (driven.attempted - driven.failed).max(1);
    let peaks: Vec<f64> = laps.iter().map(|l| l.peak_rss).collect();
    let values = [
        driven.ops_per_s(),
        driven.hist.quantile(0.5) / 1e3,
        cpu_us as f64 / completed as f64,
        median(&peaks),
        median(&samples),
    ];
    for ((name, unit, _), value) in END_TO_END.iter().zip(values) {
        report.metric(name, value, unit);
    }
    report.note("laps", laps.len() as f64, "count");
    report.note("ops_per_s.whole_run_mean", driven.mean_ops_per_s(), "1/s");
    if ctx.workload == Workload::WirePaced {
        report.note("ops_per_s.offered", PACED_OPS_PER_S as f64, "1/s");
    }
    report.note(
        "peak_rss_mb.highest_lap",
        peaks.iter().copied().fold(0.0, f64::max),
        "MiB",
    );
    report.note("peak_rss_mb.setup", setup_peak_rss, "MiB");
    report.note(
        "peak_rss_mb.watermark_reset",
        f64::from(u8::from(watermark_reset)),
        "count",
    );
    report.note("latency.samples", driven.hist.count() as f64, "count");
    tail_notes(report, &driven);
    for (i, s) in samples.iter().enumerate() {
        report.note(&format!("setup_s.sample{i}"), *s, "s");
    }
    if let Some(dir) = &args.out {
        // Lap by lap, for whoever wants to see what the host did.
        let path = dir.join(format!("{}.seed{}.laps.csv", ctx.workload.name(), ctx.seed));
        let mut csv = String::from("lap,ops_per_s,p50_us,cpu_us_per_op,peak_rss_mb\n");
        for (i, l) in laps.iter().enumerate() {
            csv += &format!(
                "{i},{:.1},{:.4},{:.4},{:.3}\n",
                l.ops_per_s,
                l.p50_ns / 1e3,
                l.cpu_us_per_op,
                l.peak_rss
            );
        }
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, csv))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The values of the per-layer metrics, by name; what a rung did not
/// reach stays 0.
#[derive(Default)]
struct Ladder(HashMap<&'static str, f64>);

impl Ladder {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _, _)| *n == name), "{name}");
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Collects spans of all rungs of a traced run.
struct Trace {
    spans: Vec<Span>,
    roots: Tracer,
    next_base: u32,
}

impl Trace {
    fn new() -> Self {
        Self {
            spans: Vec::new(),
            roots: Tracer::new(0, 16),
            next_base: IDS_PER_THREAD,
        }
    }

    /// Opens a rung span and hands out the context for its drive.
    fn rung(&mut self, layer: Layer) -> (u32, TraceCtx) {
        let id = self.roots.open(layer, 0, 0, now_ns());
        let ctx = TraceCtx {
            rung_span: id,
            id_base: self.next_base,
        };
        // Room for the threads of a wire drive.
        self.next_base += 4 * IDS_PER_THREAD;
        (id, ctx)
    }

    fn close(&mut self, rung: u32, driven: &mut Driven) {
        self.roots.finish(rung, now_ns());
        self.spans.append(&mut driven.spans);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn crypto_ops() -> OpsSnapshot {
    backend::ops(backend::active())
}

/// Engine-rung telemetry into the ladder: the counters are lifetime
/// totals of engines built for this rung, so set-up's share is taken
/// out by the `before` readings.
#[derive(Default)]
struct EngineReading {
    failed_reads: u64,
    writes: u64,
    reencryptions: u64,
    hits: u64,
    misses: u64,
    mac_batch_sum: u64,
    mac_batch_count: u64,
}

fn read_engines(engines: &[&MemoryEncryptionEngine]) -> EngineReading {
    let mut r = EngineReading::default();
    for e in engines {
        r.failed_reads += e.stats().failed_reads;
        r.writes += e.counter_stats().writes;
        r.reencryptions += e.counter_stats().reencryptions;
        if let Some(cache) = e.counter_cache_stats() {
            r.hits += cache.hits;
            r.misses += cache.misses;
        }
        r.mac_batch_sum += e.mac_batch_distribution().sum();
        r.mac_batch_count += e.mac_batch_distribution().count();
    }
    r
}

fn engine_metrics(
    ladder: &mut Ladder,
    driven: &Driven,
    before: &EngineReading,
    after: &EngineReading,
) {
    ladder.set("engine.read_ns", driven.mean_call_ns(false));
    ladder.set("engine.write_ns", driven.mean_call_ns(true));
    ladder.set(
        "engine.failed_reads",
        (after.failed_reads - before.failed_reads) as f64,
    );
    ladder.set(
        "engine.mac_batch_mean",
        ratio(
            (after.mac_batch_sum - before.mac_batch_sum) as f64,
            (after.mac_batch_count - before.mac_batch_count) as f64,
        ),
    );
    ladder.set(
        "counters.reencryptions_per_kwrite",
        ratio(
            1000.0 * (after.reencryptions - before.reencryptions) as f64,
            (after.writes - before.writes) as f64,
        ),
    );
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    ladder.set(
        "tree.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
}

fn store_metrics(ladder: &mut Ladder, delta: &Snapshot) {
    ladder.set(
        "store.service_ns_mean",
        shard_hist_mean(delta, "service_latency_ns"),
    );
    ladder.set(
        "store.queue_wait_ns_mean",
        shard_hist_mean(delta, "queue_wait_ns"),
    );
    ladder.set(
        "store.batch_size_mean",
        shard_hist_mean(delta, "batch_size"),
    );
    ladder.set(
        "store.fused_reads_mean",
        shard_hist_mean(delta, "fused_reads"),
    );
    ladder.set(
        "store.fused_writes_mean",
        shard_hist_mean(delta, "fused_writes"),
    );
    ladder.set("store.overloads", shard_counter(delta, "overloads") as f64);
    let writes = shard_counter(delta, "writes") as f64;
    let (records, syncs) = (
        shard_counter(delta, "wal_records") as f64,
        shard_counter(delta, "wal_syncs") as f64,
    );
    ladder.set(
        "wal.bytes_per_write",
        ratio(shard_counter(delta, "wal_bytes") as f64, writes),
    );
    ladder.set("wal.syncs_per_kwrite", ratio(1000.0 * syncs, writes));
    ladder.set("wal.group_commit_mean", ratio(records, syncs));
    ladder.set("wal.rotations", shard_counter(delta, "checkpoints") as f64);
    ladder.set(
        "wire.overload_stalls",
        counter_named(delta, "overload_stalls") as f64,
    );
}

fn session_metrics(ladder: &mut Ladder, stats: &SessionStats) {
    ladder.set("session.in_flight_mean", stats.in_flight_depth.mean());
    ladder.set(
        "session.completion_batch_mean",
        stats.completion_batch.mean(),
    );
    ladder.set("session.window_rejections", stats.window_rejections as f64);
}

fn account(report: &mut Report, rung: &'static str, driven: &Driven) {
    report.attempted += driven.attempted;
    report.failed += driven.failed;
    in_loop_checks(&mut report.checks, rung, driven);
}

fn traced<T: TopRung>(args: &RunArgs, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (w, seed, sizing) = (ctx.workload, ctx.seed, &ctx.sizing);
    let laps = sizing.traced_laps;
    let mut ladder = Ladder::default();
    let mut trace = Trace::new();
    ladder.set("host.timer_floor_ns", report.provenance.timer_floor_ns);

    // Below the ladder: the harness's own cost per op (the crypto loops
    // without the kernels). Every rung's ns/op includes it, so it drops
    // out of every self_ns; it is taken out of the bottom rung so that
    // the crypto numbers are the kernels' alone.
    let streaming = w == Workload::EngineStream;
    let floor_scalar = drive_crypto_scalar(w, seed, sizing, laps, false, None).ns_per_op();
    let floor_batch = drive_crypto_batch(seed, sizing, laps, false, None).ns_per_op();
    let floor_ns = if streaming { floor_batch } else { floor_scalar };

    // Rung 0: the crypto kernels, in both call shapes. The workload's
    // own shape is the bottom of its ladder.
    let (rung, tctx) = trace.rung(Layer::Crypto);
    let mut scalar = drive_crypto_scalar(w, seed, sizing, laps, true, (!streaming).then_some(tctx));
    let mut batch = drive_crypto_batch(seed, sizing, laps, true, streaming.then_some(tctx));
    trace.close(rung, if streaming { &mut batch } else { &mut scalar });
    ladder.set(
        "crypto.scalar_ns_per_block",
        scalar.ns_per_op() - floor_scalar,
    );
    ladder.set("crypto.batch_ns_per_block", batch.ns_per_op() - floor_batch);
    let bottom = if streaming { &batch } else { &scalar };
    let crypto_ns = bottom.ns_per_op() - floor_ns;
    account(report, "crypto rung", bottom);
    let mut below = bottom.ns_per_op();

    // The engine's components on their own, at the schedule's addresses.
    let prefix = schedule_prefix(w, seed, sizing);
    let Components {
        ecc_sideband_ns,
        counters_record_write_ns,
        dram_access_ns,
        tree_read_hit_ns,
        tree_read_miss_ns,
        tree_walk_ns_per_level,
    } = components(&prefix, seed, sizing);
    ladder.set("ecc.sideband_ns_per_block", ecc_sideband_ns);
    ladder.set("counters.record_write_ns", counters_record_write_ns);
    ladder.set("dram.access_ns", dram_access_ns);
    ladder.set("tree.read_hit_ns", tree_read_hit_ns);
    ladder.set("tree.read_miss_ns", tree_read_miss_ns);
    ladder.set("tree.walk_ns_per_level", tree_walk_ns_per_level);

    // Rung 1: the engine — unless the engine is the top rung, which is
    // driven with everything else at the end.
    if T::LAYER != Layer::Engine {
        let mut sut = EngineSut::build(w, seed, sizing, SHARDS)?;
        let refs: Vec<_> = sut.engines().iter().collect();
        let before = read_engines(&refs);
        let (rung, tctx) = trace.rung(Layer::Engine);
        let mut driven = sut.drive(sizing, laps, Some(tctx));
        trace.close(rung, &mut driven);
        let refs: Vec<_> = sut.engines().iter().collect();
        engine_metrics(&mut ladder, &driven, &before, &read_engines(&refs));
        ladder.set("engine.self_ns", driven.ns_per_op() - below);
        below = driven.ns_per_op();
        account(report, "engine rung", &driven);
    }

    // Rung 2: the store's blocking API. One op at a time pays two
    // thread hand-offs (tens of microseconds each on the reference
    // host), so this rung drives a prefix of the schedule: laps of a
    // sixteenth the size.
    if matches!(T::LAYER, Layer::Session | Layer::Wire) {
        let dir = (w == Workload::StoreDurable).then(|| ctx.fresh_dir());
        let mut sut = StoreSut::build(w, seed, sizing, dir.as_deref())?;
        let (rung, tctx) = trace.rung(Layer::Store);
        let short = Sizing {
            lap_ops: (sizing.lap_ops / BLOCKING_LAP_DIVISOR).max(64),
            ..*sizing
        };
        let mut driven = sut.drive_blocking(&short, laps, Some(tctx));
        trace.close(rung, &mut driven);
        sut.teardown();
        ladder.set("store.blocking_ns_per_op", driven.ns_per_op());
        ladder.set("store.self_ns", driven.ns_per_op() - below);
        below = driven.ns_per_op();
        account(report, "store rung", &driven);
    }

    // Rung 3: a pipelined session over a volatile store (the durable
    // workload's session is its top rung).
    if T::LAYER == Layer::Wire {
        let mut sut = StoreSut::build(w, seed, sizing, None)?;
        let (rung, tctx) = trace.rung(Layer::Session);
        let (mut driven, stats) = sut.drive_session(sizing, laps, Some(tctx));
        trace.close(rung, &mut driven);
        sut.teardown();
        session_metrics(&mut ladder, &stats);
        ladder.set("session.ns_per_op", driven.ns_per_op());
        ladder.set("session.self_ns", driven.ns_per_op() - below);
        below = driven.ns_per_op();
        account(report, "session rung", &driven);
        let (encode_ns, parse_ns) = protocol_framing(&prefix, seed);
        ladder.set("protocol.encode_ns", encode_ns);
        ladder.set("protocol.parse_ns", parse_ns);
    }

    // The top rung: laps with spans off and on, alternating, so that a
    // drift of the host lands on both alike. The difference is what
    // recording spans costs. Telemetry is read around all of them (both
    // kinds drive the same workload) and divided by all their ops.
    let mut top = T::build(ctx)?;
    let engines_before = top.engines().map(|e| read_engines(&e));
    let snapshot_before = top.snapshot();
    let crypto_before = crypto_ops();
    let usage_before = Usage::now();
    let (rung, tctx) = trace.rung(T::LAYER);
    let mut plain = top.drive(ctx, 1, None);
    let mut driven = top.drive(ctx, 1, Some(tctx));
    let mut session = top.session_stats();
    for lap in 1..laps {
        plain.absorb(top.drive(ctx, 1, None));
        let tctx = TraceCtx {
            rung_span: tctx.rung_span,
            id_base: tctx.id_base + lap as u32 * 4 * IDS_PER_THREAD,
        };
        driven.absorb(top.drive(ctx, 1, Some(tctx)));
        session = top.session_stats().or(session);
    }
    trace.next_base += laps as u32 * 4 * IDS_PER_THREAD;
    trace.close(rung, &mut driven);
    let used = Usage::now().since(&usage_before);
    let crypto_after = crypto_ops();
    account(report, "top rung, spans off", &plain);
    account(report, "top rung, spans on", &driven);

    let ops = (driven.attempted + plain.attempted).max(1) as f64;
    ladder.set(
        "crypto.keystream_blocks_per_op",
        (crypto_after.keystream_calls - crypto_before.keystream_calls) as f64 / ops,
    );
    let tags = (crypto_after.mac_tags - crypto_before.mac_tags) as f64;
    ladder.set("crypto.mac_tags_per_op", tags / ops);
    ladder.set(
        "crypto.mac_batched_share",
        ratio(
            (crypto_after.mac_batch_tags - crypto_before.mac_batch_tags) as f64,
            tags,
        ),
    );
    if let (Some(before), Some(after)) = (engines_before, top.engines()) {
        engine_metrics(&mut ladder, &driven, &before, &read_engines(&after));
    }
    let mut telemetry = Telemetry {
        shards: match (snapshot_before, top.snapshot()) {
            (Some(before), Some(after)) => Some(after.delta(&before)),
            _ => None,
        },
        session,
        reopen_ms: None,
    };
    let top_ns = driven.ns_per_op();
    let self_ns = top_ns - below;
    match T::LAYER {
        Layer::Engine => ladder.set("engine.self_ns", self_ns),
        Layer::Session => {
            ladder.set("session.ns_per_op", top_ns);
            ladder.set("session.self_ns", self_ns);
        }
        _ => {
            ladder.set("wire.ns_per_op", top_ns);
            ladder.set("wire.self_ns", self_ns);
            ladder.set(
                "wire.sys_cpu_share",
                ratio(used.sys_us as f64, used.cpu_us() as f64),
            );
            ladder.set(
                "wire.ctx_switches_per_op",
                used.voluntary_switches as f64 / ops,
            );
            ladder.set("wire.send_lag_p99_us", driven.lag.quantile(0.99) / 1e3);
        }
    }
    ladder.set("tail.p99_us", driven.hist.quantile(0.99) / 1e3);
    ladder.set("tail.p999_us", driven.hist.quantile(0.999) / 1e3);
    ladder.set(
        "trace.overhead_share",
        ratio(top_ns - plain.ns_per_op(), plain.ns_per_op()),
    );

    if args.corrupt_model {
        top.corrupt_model();
    }
    top.verify(&mut report.checks, &mut telemetry);
    top.teardown();
    if let Some(delta) = &telemetry.shards {
        store_metrics(&mut ladder, delta);
    }
    if let Some(stats) = &telemetry.session {
        session_metrics(&mut ladder, stats);
    }
    if let Some(ms) = telemetry.reopen_ms {
        ladder.set("persist.reopen_ms", ms);
    }

    for (name, unit, _) in PER_LAYER {
        report.metric(name, ladder.0.get(name).copied().unwrap_or(0.0), unit);
    }
    report.note("ladder.top_ns_per_op", top_ns, "ns");
    report.note("ladder.top_ns_per_op_spans_off", plain.ns_per_op(), "ns");
    report.note("ladder.bottom_ns_per_op", crypto_ns, "ns");
    report.note("ladder.harness_ns_per_op", floor_ns, "ns");
    report.note("trace.spans", trace.spans.len() as f64, "count");
    for (layer, ns) in self_time_by_layer(&trace.spans) {
        if layer == Layer::Harness {
            report.note("trace.harness_self_time_ms", ns as f64 / 1e6, "ms");
        }
    }
    if let Some(dir) = &args.out {
        trace.spans.extend_from_slice(trace.roots.spans());
        let path = dir.join(format!("{}.seed{}.spans.csv", w.name(), seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| write_csv(&trace.spans, &mut std::io::BufWriter::new(f)))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Runs one invocation and returns its report.
///
/// # Errors
///
/// Set-up failures (I/O, bind, a block that read back wrong while
/// prefilling): there is nothing to measure, so nothing is reported.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    if cfg!(debug_assertions) && !args.smoke {
        return Err(
            "debug build: refusing to measure (build with --release, or pass --smoke)".into(),
        );
    }
    let sizing = Sizing::new(args.workload, args.seconds, args.traced, args.smoke);
    let scratch = args
        .work_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        sizing,
        scratch,
        dirs: std::cell::Cell::new(0),
    };
    let mut report = new_report(args, sizing, timer_floor_ns());
    let go = |report: &mut Report| match (args.workload, args.traced) {
        (Workload::EngineRandom, false) => untraced::<EngineRandomTop>(args, &ctx, report),
        (Workload::EngineRandom, true) => traced::<EngineRandomTop>(args, &ctx, report),
        (Workload::EngineStream, false) => untraced::<StreamTop>(args, &ctx, report),
        (Workload::EngineStream, true) => traced::<StreamTop>(args, &ctx, report),
        (Workload::StoreDurable, false) => untraced::<DurableTop>(args, &ctx, report),
        (Workload::StoreDurable, true) => traced::<DurableTop>(args, &ctx, report),
        (Workload::WireClosed, false) => untraced::<WireTop<false>>(args, &ctx, report),
        (Workload::WireClosed, true) => traced::<WireTop<false>>(args, &ctx, report),
        (Workload::WirePaced, false) => untraced::<WireTop<true>>(args, &ctx, report),
        (Workload::WirePaced, true) => traced::<WireTop<true>>(args, &ctx, report),
    };
    let outcome = go(&mut report);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    outcome?;
    if let Some(dir) = &args.out {
        report
            .save(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(report)
}

/// Default `--work-dir`: `.work/` beside the harness's manifest.
#[must_use]
pub fn default_work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}
