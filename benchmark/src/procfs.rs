//! What `/proc` says about this process: CPU time, peak memory, per-thread
//! scheduling statistics, and where a directory is mounted. Linux only.

use std::collections::BTreeMap;
use std::path::Path;

/// User + system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Resident set size (`VmRSS`) in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:") * 1024
}

fn status_kib(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// One thread's scheduler accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadSched {
    /// Time on a CPU, ns.
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns.
    pub wait_ns: u64,
    /// Times it was given a CPU.
    pub timeslices: u64,
}

impl ThreadSched {
    pub fn since(&self, earlier: &ThreadSched) -> ThreadSched {
        ThreadSched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            timeslices: self.timeslices.saturating_sub(earlier.timeslices),
        }
    }
}

/// `/proc/self/task/*/schedstat` keyed by thread name (`comm`). The
/// runtime names each node thread after its `Addr`; names longer than 15
/// bytes are truncated by the kernel. Threads sharing a name are summed.
pub fn threads() -> BTreeMap<String, ThreadSched> {
    let mut out: BTreeMap<String, ThreadSched> = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let path = entry.path();
        let Ok(comm) = std::fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(path.join("schedstat")) else {
            continue;
        };
        let mut fields = stat.split_whitespace().map(|f| f.parse::<u64>().unwrap_or(0));
        let sched = ThreadSched {
            run_ns: fields.next().unwrap_or(0),
            wait_ns: fields.next().unwrap_or(0),
            timeslices: fields.next().unwrap_or(0),
        };
        let slot = out.entry(comm.trim().to_string()).or_default();
        slot.run_ns += sched.run_ns;
        slot.wait_ns += sched.wait_ns;
        slot.timeslices += sched.timeslices;
    }
    out
}

/// The kernel's 15-byte truncation of a thread name.
pub fn comm_of(name: &str) -> String {
    let mut end = name.len().min(15);
    while !name.is_char_boundary(end) {
        end -= 1;
    }
    name[..end].to_string()
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`), e.g. `tmpfs`, `ext4`, `overlay`.
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert!(std::hint::black_box(x) != 1);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mib() > 0.5);
        assert!(rss_bytes() as f64 <= peak_rss_mib() * 1024.0 * 1024.0);
    }

    #[test]
    fn named_threads_show_up_with_truncated_names() {
        let name = "Replica(ReplicaId(3))";
        let t = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(|| {
                let seen = threads();
                seen.contains_key(&comm_of("Replica(ReplicaId(3))"))
            })
            .unwrap();
        assert!(t.join().unwrap());
        assert_eq!(comm_of(name), "Replica(Replica");
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}
