//! The host a report was measured on, and the process's peak memory.
//! Figures from different hosts are not comparable without this context.

use std::fs;
use std::sync::{mpsc, OnceLock};
use std::thread;
use std::time::Instant;

pub struct HostInfo {
    pub nproc: usize,
    /// CPUs this process may run on (1 once pinned).
    pub usable: usize,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
}

impl HostInfo {
    pub fn probe() -> Self {
        HostInfo {
            nproc: fs::read_to_string("/sys/devices/system/cpu/online")
                .ok()
                .and_then(|s| count_cpus(s.trim()))
                .unwrap_or(1),
            usable: std::thread::available_parallelism().map_or(1, |n| n.get()),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }

    /// One line of host context for a run with `ranks` rank threads whose
    /// largest per-rank arena is `arena_bytes`.
    pub fn describe(&self, ranks: usize, arena_bytes: usize) -> String {
        let mb = |b: Option<u64>| {
            b.map_or("unknown".to_string(), |b| format!("{:.1} MB", b as f64 / 1e6))
        };
        let vs_l2 = self.l2_bytes.map_or("unknown".to_string(), |l2| {
            format!("{:.2}x L2", arena_bytes as f64 / l2 as f64)
        });
        format!(
            "host: nproc={} usable_cpus={} L2={} L3={} rank_threads_per_core={:.1} arena_per_rank={:.2} MB ({})",
            self.nproc,
            self.usable,
            mb(self.l2_bytes),
            mb(self.l3_bytes),
            ranks as f64 / self.usable as f64,
            arena_bytes as f64 / 1e6,
            vs_l2,
        )
    }
}

/// Size of cpu0's unified or data cache at `level`.
fn cache_bytes(level: u32) -> Option<u64> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for entry in fs::read_dir(base).ok()?.flatten() {
        let read = |f: &str| fs::read_to_string(entry.path().join(f)).ok();
        let lvl = read("level").and_then(|s| s.trim().parse::<u32>().ok());
        let kind = read("type").unwrap_or_default();
        if lvl == Some(level) && kind.trim() != "Instruction" {
            return read("size").and_then(|s| parse_size(s.trim()));
        }
    }
    None
}

/// Counts the CPUs in a list such as `0-3,6`.
fn count_cpus(list: &str) -> Option<usize> {
    list.split(',').try_fold(0, |n, part| match part.split_once('-') {
        Some((a, b)) => Some(n + b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
        None => part.parse::<usize>().ok().map(|_| n + 1),
    })
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// The time [`speed_probe_ms`] takes at the reference speed; timed
/// metrics are scaled to it.
pub const PROBE_REF_MS: f64 = 2.5;

/// Wall time, in milliseconds, of fixed work that lives in the benchmark
/// and calls nothing in the library, in two parts like the calls it is
/// set beside: arithmetic, two multiply-add passes over a 4 MiB buffer
/// (twice a 2 MB L2, so it streams from the next cache as the kernel
/// does); and the operating system, four threads spawned and joined that
/// each fault in and read 256 KiB, then 100 round trips over a channel to
/// a fifth thread.
///
/// A shared host's CPU can run more than 1.5x slower for minutes at a time
/// while its neighbours are busy, with no steal time to show it. Probed
/// between calls, this work slows by about as much as the calls do. On a
/// 2-vCPU KVM host, 10 s window medians of the call time spread 0.14 (IQR
/// over median) over 120 s of `oneshot` and 0.22 over 100 s of `serve`;
/// those of the call time over the probe time, 0.04 and 0.10. Either part
/// alone did worse on one of the two: arithmetic 0.07 and 0.19, the
/// operating-system part 0.09 and 0.08.
pub fn speed_probe_ms() -> f64 {
    const WORDS: usize = 1 << 19;
    static BUF: OnceLock<Vec<f64>> = OnceLock::new();
    let buf = BUF.get_or_init(|| (0..WORDS).map(|i| (i % 7) as f64 * 0.5).collect());
    let t0 = Instant::now();
    let mut acc = [0.0f64; 4];
    for _ in 0..2 {
        for c in std::hint::black_box(buf).chunks_exact(4) {
            for k in 0..4 {
                acc[k] = acc[k] * 0.999 + c[k];
            }
        }
    }
    std::hint::black_box(acc);

    let touchers: Vec<_> = (0..4)
        .map(|_| {
            thread::spawn(|| {
                let v = vec![1u8; 256 << 10];
                std::hint::black_box(v.iter().map(|&b| b as u64).sum::<u64>())
            })
        })
        .collect();
    for t in touchers {
        t.join().expect("probe thread does not panic");
    }
    let (to_echo, echo_in) = mpsc::channel::<u64>();
    let (echo_out, from_echo) = mpsc::channel::<u64>();
    let echo = thread::spawn(move || {
        for v in echo_in {
            echo_out.send(v + 1).expect("the probe waits for every reply");
        }
    });
    let mut x = 0;
    for _ in 0..100 {
        to_echo.send(x).expect("the echo thread runs until the sender drops");
        x = from_echo.recv().expect("the echo thread replies to every message");
    }
    drop(to_echo);
    echo.join().expect("echo thread does not panic");
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Probes on each side of a sample that [`scale_to_reference`] takes the
/// median of.
const PROBES_AROUND: usize = 2;

/// Each wall time in `wall`, scaled to the reference speed by the median of
/// the probe times taken next to it: `probes[i]` was taken just before
/// `wall[i]`, and sample `i` uses probes `i-2..=i+2`. Slow stretches of a
/// shared host last from under a second to minutes; a window this narrow
/// follows the short ones too. Over eight 30 s `oneshot` runs the spread
/// (IQR over median) of `call_ms_tail` was 0.24 in wall time, 0.16 scaled
/// by the run's median probe and 0.07 scaled this way.
pub fn scale_to_reference(wall: &[f64], probes: &[f64]) -> Vec<f64> {
    assert_eq!(wall.len(), probes.len(), "one probe per sample");
    (0..wall.len())
        .map(|i| {
            let around =
                &probes[i.saturating_sub(PROBES_AROUND)..(i + PROBES_AROUND + 1).min(probes.len())];
            wall[i] * PROBE_REF_MS / crate::stats::median(around)
        })
        .collect()
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU.
///
/// Call before any other thread starts. On a shared 2-vCPU host a process
/// that keeps both vCPUs busy loses 30-40% of them to hypervisor steal at
/// busy times, and its wall times swing by up to 2.8x between runs; on one
/// vCPU steal stays low, though the CPU's speed still varies (see
/// [`speed_probe_ms`]).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer (1024 bits) and
    // the size passed is its exact size in bytes.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer and the size
    // passed is its exact size in bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_probes_around_each_sample() {
        let wall = [10.0; 10];
        assert_eq!(scale_to_reference(&wall, &[PROBE_REF_MS; 10]), wall);
        // A slow stretch in the second half halves the scaled times there;
        // a single outlying probe moves nothing.
        let (r, s) = (PROBE_REF_MS, 2.0 * PROBE_REF_MS);
        let probes = [r, r, 9.0 * r, r, r, s, s, s, s, s];
        let scaled = scale_to_reference(&wall, &probes);
        assert_eq!(scaled, [10.0, 10.0, 10.0, 10.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        assert!(scale_to_reference(&[], &[]).is_empty());
    }

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("2048K"), Some(2 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size(""), None);
        assert_eq!(count_cpus("0-1"), Some(2));
        assert_eq!(count_cpus("0-3,6"), Some(5));
        assert_eq!(count_cpus("x"), None);
    }
}
