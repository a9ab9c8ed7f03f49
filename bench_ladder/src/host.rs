//! What the harness asks the host: CPU time and context switches
//! (`getrusage`), peak resident memory (`VmHWM`), the cost of reading
//! the clock, and the provenance recorded with every result.

use crate::laps::now_ns;
use std::path::Path;

/// Raw bindings, in the style of the repository's other dependency-free
/// syscall wrappers (`ame-store`'s `affinity`, `ame-server`'s `sys`):
/// the only `unsafe` in the harness, behind safe functions.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    /// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen
    /// `long`s.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        ixrss: i64,
        idrss: i64,
        isrss: i64,
        minflt: i64,
        majflt: i64,
        nswap: i64,
        inblock: i64,
        oublock: i64,
        msgsnd: i64,
        msgrcv: i64,
        nsignals: i64,
        nvcsw: i64,
        nivcsw: i64,
    }

    const RUSAGE_SELF: i32 = 0;
    const PR_SET_TIMERSLACK: i32 = 29;

    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    /// `(user µs, system µs, voluntary switches, involuntary switches)`
    /// of the whole process.
    pub fn rusage_self() -> Option<(u64, u64, u64, u64)> {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a live, writable, correctly sized and aligned
        // `struct rusage` for this target (layout pinned by the module's
        // cfg and the size test below); the kernel writes at most that
        // many bytes and keeps no reference.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        (rc == 0).then(|| {
            (
                (ru.utime.sec * 1_000_000 + ru.utime.usec) as u64,
                (ru.stime.sec * 1_000_000 + ru.stime.usec) as u64,
                ru.nvcsw as u64,
                ru.nivcsw as u64,
            )
        })
    }

    /// Asks for 1 ns timer slack on the calling thread, so a paced
    /// sender's `sleep` wakes when asked rather than up to the default
    /// 50 µs later. Best effort.
    pub fn tight_timer_slack() -> bool {
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and
        // touches only the calling thread's scheduler state.
        unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) == 0 }
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn rusage_layout_is_the_kernel_abi() {
            assert_eq!(std::mem::size_of::<super::Rusage>(), 144);
        }
    }
}

/// Hosts without the Linux ABI above: no CPU metric, so no benchmark.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    pub fn rusage_self() -> Option<(u64, u64, u64, u64)> {
        None
    }

    pub fn tight_timer_slack() -> bool {
        false
    }
}

pub use sys::tight_timer_slack;

/// Process-wide resource use so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// User CPU time, microseconds, all threads.
    pub user_us: u64,
    /// System CPU time, microseconds, all threads.
    pub sys_us: u64,
    /// Voluntary context switches (`ru_nvcsw`).
    pub voluntary_switches: u64,
    /// Involuntary context switches (`ru_nivcsw`).
    pub involuntary_switches: u64,
}

impl Usage {
    /// Resource use of the whole process up to now.
    ///
    /// # Panics
    ///
    /// Panics where `getrusage` is unavailable: a benchmark that cannot
    /// read CPU time must not report a CPU metric.
    #[must_use]
    pub fn now() -> Self {
        let (user_us, sys_us, voluntary_switches, involuntary_switches) =
            sys::rusage_self().expect("getrusage(RUSAGE_SELF) is required (64-bit Linux)");
        Self {
            user_us,
            sys_us,
            voluntary_switches,
            involuntary_switches,
        }
    }

    /// Use since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            voluntary_switches: self.voluntary_switches - earlier.voluntary_switches,
            involuntary_switches: self.involuntary_switches - earlier.involuntary_switches,
        }
    }

    /// User + system CPU, microseconds.
    #[must_use]
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size so far (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Restarts the `VmHWM` watermark at the current resident size, so that
/// a later [`peak_rss_mib`] covers only what follows. `false` where the
/// kernel does not offer it: the watermark then covers the whole
/// process, and the result says so.
#[must_use]
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Mean cost of one [`now_ns`] call, nanoseconds — the floor under every
/// latency sample (each sample spans two calls).
#[must_use]
pub fn timer_floor_ns() -> f64 {
    const CALLS: u32 = 200_000;
    let mut best = f64::MAX;
    for _ in 0..5 {
        let start = now_ns();
        let mut last = start;
        for _ in 0..CALLS {
            last = std::hint::black_box(now_ns());
        }
        best = best.min((last - start) as f64 / f64::from(CALLS));
    }
    best
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo`.
#[must_use]
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the harness's checkout (`unknown` outside
    /// a git repository, as in the driver's checkouts).
    pub git_commit: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Always `release`: a debug build refuses to measure.
    pub profile: &'static str,
    /// Crypto tier serving the process.
    pub crypto_backend: &'static str,
    /// Crypto-relevant CPU features of the host.
    pub cpu_features: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// Filesystem type under the work directory.
    pub work_dir_fs: String,
    /// Calibrated [`timer_floor_ns`].
    pub timer_floor_ns: f64,
}

impl Provenance {
    /// Gathers the cheap fields; `git_commit` and `rustc` stay `unknown`
    /// until [`Provenance::with_toolchain`] spawns the two commands.
    #[must_use]
    pub fn gather(work_dir: &Path, timer_floor_ns: f64) -> Self {
        Self {
            git_commit: "unknown".into(),
            rustc: "unknown".into(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            crypto_backend: ame_crypto::backend::active().name(),
            cpu_features: ame_crypto::backend::host_features(),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            work_dir_fs: filesystem_of(work_dir),
            timer_floor_ns,
        }
    }

    /// Fills `git_commit` and `rustc` by running `git` and `rustc` (each
    /// waited for). Only saved results pay for the two processes.
    #[must_use]
    pub fn with_toolchain(mut self) -> Self {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        self.git_commit = command_line("git", &["rev-parse", "HEAD"], here);
        self.rustc = command_line("rustc", &["-V"], here);
        self
    }
}
