//! What the run ran on: core count, CPU model, compiler, source
//! revision; and what it used: peak resident memory and CPU time.

use std::path::{Path, PathBuf};

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The commit the sources were built from, when they sit in a git
/// checkout; "unknown" otherwise (a plain source tree has no revision).
pub fn git_sha() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(name) => std::fs::read_to_string(git.join(name))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(name))
                    .and_then(|l| l.split(' ').next())
                    .map(str::to_string)
            }),
    };
    sha.filter(|s| s.len() >= 7 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixes glibc's mmap threshold at its initial 128 KiB. By default it
/// rises each time a large block is freed, after which blocks up to that
/// size come from the heap and stay resident when freed, so peak RSS
/// depended on the order threads happened to free in (±10 MiB between
/// passes of the same service workload). Fixed, peak RSS follows the
/// live data.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
        extern "C" {
            fn mallopt(
                param: std::os::raw::c_int,
                value: std::os::raw::c_int,
            ) -> std::os::raw::c_int;
        }
        // SAFETY: mallopt only changes allocator tuning; it is called once,
        // before the benchmark starts any thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Returns freed heap memory to the system and resets the peak resident
/// set size to the current one, so the next [`peak_rss_mib`] covers only
/// what runs after this call, from a heap holding only live data.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes a byte count and only releases
        // free heap pages; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time of the whole process so far, nanoseconds: every thread,
/// including those that have exited.
pub fn process_cpu_ns() -> u64 {
    cpu_clock(cpu::PROCESS)
}

/// CPU time of the calling thread so far, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock(cpu::THREAD)
}

#[cfg(target_os = "linux")]
mod cpu {
    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: std::os::raw::c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
}

#[cfg(target_os = "linux")]
fn cpu_clock(clock: i32) -> u64 {
    let mut ts = cpu::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { cpu::clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Without per-thread CPU clocks, CPU time is not measured.
#[cfg(not(target_os = "linux"))]
mod cpu {
    pub const PROCESS: i32 = 0;
    pub const THREAD: i32 = 1;
}

#[cfg(not(target_os = "linux"))]
fn cpu_clock(_: i32) -> u64 {
    0
}

/// The directory the benchmark writes its spans and checkpoints to.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
