//! Process accounting and the host fingerprint stamped on every record.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// `ru_maxrss` (KiB) followed by the thirteen other `long` counters.
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// CPU time and peak resident set of this process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub max_rss_kib: u64,
}

fn to_duration(t: &Timeval) -> Duration {
    Duration::from_secs(t.sec.max(0) as u64) + Duration::from_micros(t.usec.max(0) as u64)
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `Rusage` matches the C `struct rusage` layout on Linux
    // (two `timeval`s followed by fourteen `long`s) and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    Usage {
        user: to_duration(&ru.utime),
        sys: to_duration(&ru.stime),
        max_rss_kib: ru.rest[0].max(0) as u64,
    }
}

/// Peak resident set of this process in KiB: `VmHWM` from the kernel's
/// status page for the process. `ru_maxrss` is only the fallback, because
/// Linux carries it over from the image that called `execve` (a large
/// parent shell or harness would set the floor).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or_else(|| usage().max_rss_kib)
}

/// Sys over (user + sys) CPU time between two readings.
pub fn sys_frac(before: &Usage, after: &Usage) -> f64 {
    let user = after.user.saturating_sub(before.user).as_secs_f64();
    let sys = after.sys.saturating_sub(before.sys).as_secs_f64();
    if user + sys > 0.0 {
        sys / (user + sys)
    } else {
        0.0
    }
}

/// The CPU brand string from `cpuid`, or `unknown`.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        #[allow(unused_unsafe)]
        // SAFETY: `cpuid` is available on every x86_64 CPU.
        let max = unsafe { __cpuid(0x8000_0000) }.eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                #[allow(unused_unsafe)]
                // SAFETY: the leaf is within the reported extended range.
                let r = unsafe { __cpuid(leaf) };
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_owned();
            if !brand.is_empty() {
                return brand;
            }
        }
    }
    "unknown".to_owned()
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// (`unknown` outside a git repository).
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host, backend and thread-budget fingerprint. Absolute numbers are
/// comparable only between records whose fingerprints match.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    vec![
        ("cpu_model", cpu_model()),
        (
            "hardware_threads",
            drcell_pool::hardware_threads().to_string(),
        ),
        (
            "thread_budget",
            drcell_pool::budget::total_budget().to_string(),
        ),
        ("compute_backend", drcell_linalg::backend::startup_line()),
        ("git_commit", git_commit()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_monotone_and_sys_frac_is_a_fraction() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.user + b.sys >= a.user + a.sys);
        assert!(b.max_rss_kib > 0);
        assert!(peak_rss_kib() > 0);
        let f = sys_frac(&a, &b);
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn fingerprint_names_every_field() {
        let keys: Vec<&str> = fingerprint().iter().map(|(k, _)| *k).collect();
        assert_eq!(
            keys,
            [
                "cpu_model",
                "hardware_threads",
                "thread_budget",
                "compute_backend",
                "git_commit"
            ]
        );
    }
}
