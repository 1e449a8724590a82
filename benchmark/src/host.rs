//! What the benchmark reads from the host: process CPU time, peak RSS,
//! and the facts that make a number interpretable (CPU model, parallelism,
//! commit).

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) consumed so far by every thread of this
/// process, exited threads included. Nanosecond resolution — the
/// `/proc/self/stat` tick (10 ms) would quantize a one-second pass to 1 %.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel defines; the call
    // writes at most `size_of::<Timespec>()` bytes through the pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), in KiB.
pub fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `available_parallelism()`, the thread count `sim::runner` will use.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, or `"unknown"` when the repo root (the
/// directory above this package) is not a git work tree; git is kept from
/// looking any higher.
pub fn git_commit() -> String {
    let package = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let above_repo = package.ancestors().nth(2).unwrap_or(package);
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(package)
        .env("GIT_CEILING_DIRECTORIES", above_repo)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
