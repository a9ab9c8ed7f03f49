//! The benchmark's fixed shape: workloads, their sizes, and the metric
//! names `BENCHMARK.json` declares. `tests/contract.rs` checks the two
//! agree.

use ame_engine::{CounterSchemeKind, EngineConfig, MacPlacement};

/// The workloads: four that `BENCHMARK.json` lists, and `wire_paced`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One engine, 32 MiB, uniform random scalar calls, 70/30.
    EngineRandom,
    /// One engine, 4 MiB, sequential 64-block batched calls, 50/50.
    EngineStream,
    /// Durable store, one session, writes only, then crash + reopen.
    StoreDurable,
    /// Loopback server, two pipelined connections, closed loop, 50/50.
    WireClosed,
    /// The same server, open loop at a fixed rate.
    WirePaced,
}

/// Laps each rung of a traced run drives.
pub const TRACED_LAPS: usize = 5;
/// A traced lap is `--seconds` over this many seconds of the nominal
/// rate (0.625 s at the driver's 20 s).
pub const TRACED_LAP_DIVISOR: u64 = 32;
/// An untraced run drives at least this many laps, however slow the
/// host.
pub const MIN_LAPS: usize = 8;
/// Set-ups timed per untraced run (tear down, rebuild); the median is
/// reported.
pub const SETUP_SAMPLES: usize = 3;
/// Connections (one thread each, = `nproc` of the reference host) of the
/// wire workloads.
pub const WIRE_CONNECTIONS: u64 = 2;
/// In-flight window of each wire connection.
pub const WIRE_WINDOW: usize = 32;
/// Per-shard in-flight window of the session rung (the store's
/// default).
pub const SESSION_WINDOW: usize = 16;
/// Shards of every store.
pub const SHARDS: u64 = 2;
/// Offered rate of the paced workload, ops/s over all connections.
pub const PACED_OPS_PER_S: u64 = 20_000;

impl Workload {
    /// Every workload the binary runs.
    pub const ALL: [Workload; 5] = [
        Workload::EngineRandom,
        Workload::EngineStream,
        Workload::StoreDurable,
        Workload::WireClosed,
        Workload::WirePaced,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order. `wire_paced`
    /// is not among them: a lone request crosses five thread hand-offs,
    /// so its `p50_us` is set by which of seven threads the scheduler
    /// has sharing which of two vCPUs (55 to 190 us from one half-second
    /// lap to the next, 15 to 37 % between runs of identical code). It
    /// runs by name, for what the ladder says about hops.
    pub const BENCHMARKED: [Workload; 4] = [
        Workload::EngineRandom,
        Workload::EngineStream,
        Workload::StoreDurable,
        Workload::WireClosed,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineRandom => "engine_random",
            Workload::EngineStream => "engine_stream",
            Workload::StoreDurable => "store_durable",
            Workload::WireClosed => "wire_closed",
            Workload::WirePaced => "wire_paced",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Blocks of protected memory the workload touches (all prefilled at
    /// set-up).
    #[must_use]
    pub fn footprint_blocks(self) -> u64 {
        match self {
            // 32 MiB: 8x a core's L2, 8 192 counter blocks against a
            // 64-entry counter cache.
            Workload::EngineRandom => 1 << 19,
            // 4 MiB: fits L2, 64 counter blocks fit the counter cache.
            Workload::EngineStream => 1 << 16,
            // 2 shards x 8 MiB.
            Workload::StoreDurable => 1 << 18,
            // 2 shards x 4 MiB.
            Workload::WireClosed | Workload::WirePaced => 1 << 17,
        }
    }

    /// Operations per second the laps are cut for: the workload's rate
    /// on a calm reference host, frozen after calibration.
    #[must_use]
    pub fn nominal_ops_per_s(self) -> u64 {
        match self {
            Workload::EngineRandom => 360_000,
            Workload::EngineStream => 680_000,
            Workload::StoreDurable => 30_000,
            Workload::WireClosed => 150_000,
            Workload::WirePaced => PACED_OPS_PER_S,
        }
    }

    /// Length of one untraced lap, milliseconds of the nominal rate:
    /// short, so that a host stall of a second or two spoils few of
    /// them; `store_durable`'s holds a WAL rotation of each shard.
    #[must_use]
    pub fn lap_ms(self) -> u64 {
        match self {
            Workload::EngineRandom | Workload::EngineStream => 250,
            Workload::StoreDurable => 600,
            Workload::WireClosed => 300,
            Workload::WirePaced => 500,
        }
    }

    /// Build + prefill + read-back rounds timed as one set-up sample, so
    /// that a sample is 1.2 s or more on the reference host.
    #[must_use]
    pub fn setup_rounds(self) -> u64 {
        match self {
            Workload::EngineStream => 8,
            _ => 1,
        }
    }

    /// Percentage of writes in the mix.
    #[must_use]
    pub fn write_percent(self) -> u64 {
        match self {
            Workload::EngineRandom => 30,
            Workload::EngineStream | Workload::WireClosed | Workload::WirePaced => 50,
            Workload::StoreDurable => 100,
        }
    }

    /// Independent op streams (connections) of the workload.
    #[must_use]
    pub fn partitions(self) -> u64 {
        match self {
            Workload::WireClosed | Workload::WirePaced => WIRE_CONNECTIONS,
            _ => 1,
        }
    }
}

/// Sizes of one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Blocks prefilled and addressed.
    pub footprint_blocks: u64,
    /// Operations per lap (all connections together): fixed per
    /// workload on an untraced run, `--seconds / 32` seconds of the
    /// nominal rate on a traced one.
    pub lap_ops: u64,
    /// Untraced run: laps are driven until the measured phase has
    /// lasted this long, seconds.
    pub phase_seconds: u64,
    /// Untraced run: at least this many laps.
    pub min_laps: usize,
    /// Laps per rung (traced run).
    pub traced_laps: usize,
    /// Set-up samples.
    pub setup_samples: usize,
    /// Rounds per set-up sample.
    pub setup_rounds: u64,
    /// `--smoke`: a functional check, not a measurement.
    pub smoke: bool,
}

impl Sizing {
    /// The sizes of `workload` for `--seconds seconds`, untraced or
    /// traced; `smoke` shrinks everything to one small lap and one
    /// small set-up.
    #[must_use]
    pub fn new(workload: Workload, seconds: u64, traced: bool, smoke: bool) -> Self {
        // Whole submission units (a streaming write + read pair is 128
        // blocks) on every connection.
        let granule = 2 * crate::schedule::CHUNK * workload.partitions();
        let lap_ops = |ops: u64| (ops / granule).max(1) * granule;
        let rate = workload.nominal_ops_per_s();
        if smoke {
            return Self {
                footprint_blocks: 4096,
                lap_ops: lap_ops(rate / 200),
                phase_seconds: 0,
                min_laps: 1,
                traced_laps: 1,
                setup_samples: 1,
                setup_rounds: 1,
                smoke,
            };
        }
        Self {
            footprint_blocks: workload.footprint_blocks(),
            lap_ops: lap_ops(if traced {
                rate * seconds.max(1) / TRACED_LAP_DIVISOR
            } else {
                rate * workload.lap_ms() / 1000
            }),
            phase_seconds: seconds,
            min_laps: MIN_LAPS,
            traced_laps: TRACED_LAPS,
            setup_samples: SETUP_SAMPLES,
            setup_rounds: workload.setup_rounds(),
            smoke,
        }
    }
}

/// The engine shape every workload runs: the paper's scheme (delta
/// counters, MAC in the ECC side-band) with the tree depth and counter
/// cache the existing store benches record.
#[must_use]
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        mac_placement: MacPlacement::MacInEcc,
        counter_scheme: CounterSchemeKind::Delta,
        max_correctable_flips: 2,
        tree_levels: 6,
        counter_cache_blocks: 64,
        prefetch_counters: true,
        ..EngineConfig::default()
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// `(name, unit, direction)` of the end-to-end metrics.
pub const END_TO_END: [(&str, &str, Better); 5] = [
    ("ops_per_s", "1/s", Better::Higher),
    ("p50_us", "us", Better::Lower),
    ("cpu_us_per_op", "us", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// `(name, unit, direction)` of the per-layer metrics, bottom rung
/// first. A rung a workload does not reach reports 0.
pub const PER_LAYER: [(&str, &str, Better); 48] = [
    ("crypto.scalar_ns_per_block", "ns", Better::Lower),
    ("crypto.batch_ns_per_block", "ns", Better::Lower),
    ("crypto.keystream_blocks_per_op", "count", Better::Lower),
    ("crypto.mac_tags_per_op", "count", Better::Lower),
    ("crypto.mac_batched_share", "ratio", Better::Higher),
    ("ecc.sideband_ns_per_block", "ns", Better::Lower),
    ("counters.record_write_ns", "ns", Better::Lower),
    ("counters.reencryptions_per_kwrite", "count", Better::Lower),
    ("dram.access_ns", "ns", Better::Lower),
    ("tree.read_hit_ns", "ns", Better::Lower),
    ("tree.read_miss_ns", "ns", Better::Lower),
    ("tree.walk_ns_per_level", "ns", Better::Lower),
    ("tree.cache_hit_ratio", "ratio", Better::Higher),
    ("engine.read_ns", "ns", Better::Lower),
    ("engine.write_ns", "ns", Better::Lower),
    ("engine.self_ns", "ns", Better::Lower),
    ("engine.mac_batch_mean", "count", Better::Higher),
    ("engine.failed_reads", "count", Better::Lower),
    ("store.blocking_ns_per_op", "ns", Better::Lower),
    ("store.self_ns", "ns", Better::Lower),
    ("store.service_ns_mean", "ns", Better::Lower),
    ("store.queue_wait_ns_mean", "ns", Better::Lower),
    ("store.batch_size_mean", "count", Better::Higher),
    ("store.fused_reads_mean", "count", Better::Higher),
    ("store.fused_writes_mean", "count", Better::Higher),
    ("store.overloads", "count", Better::Lower),
    ("wal.bytes_per_write", "count", Better::Lower),
    ("wal.syncs_per_kwrite", "count", Better::Lower),
    ("wal.group_commit_mean", "count", Better::Higher),
    ("wal.rotations", "count", Better::Lower),
    ("persist.reopen_ms", "ms", Better::Lower),
    ("session.ns_per_op", "ns", Better::Lower),
    ("session.self_ns", "ns", Better::Lower),
    ("session.in_flight_mean", "count", Better::Higher),
    ("session.completion_batch_mean", "count", Better::Higher),
    ("session.window_rejections", "count", Better::Lower),
    ("protocol.encode_ns", "ns", Better::Lower),
    ("protocol.parse_ns", "ns", Better::Lower),
    ("wire.ns_per_op", "ns", Better::Lower),
    ("wire.self_ns", "ns", Better::Lower),
    ("wire.sys_cpu_share", "ratio", Better::Lower),
    ("wire.ctx_switches_per_op", "count", Better::Lower),
    ("wire.overload_stalls", "count", Better::Lower),
    ("wire.send_lag_p99_us", "us", Better::Lower),
    ("tail.p99_us", "us", Better::Lower),
    ("tail.p999_us", "us", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("host.timer_floor_ns", "ns", Better::Lower),
];
