//! Small shared pieces: the input RNG, order statistics, and what the
//! benchmark reads from `/proc` about its own process and host.

use std::time::Instant;

/// SplitMix64 — the benchmark's only randomness. It generates *inputs*
/// (buffer contents, counts, the hotspot rank, cluster jitter seeds); the
/// crates under test never see the benchmark seed itself.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, lane)` — e.g. one per rank.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill(&mut v);
        v
    }
}

/// Median, quartiles and range of one timing's samples. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method) so the
/// spreads printed here are the ones the acceptance rule computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |k: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            // Exclusive method: position k*(n+1)/4, 1-based, clamped.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Run `f` `reps` times and return the median seconds of one call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Iterations of one yardstick sub-sample.
const YARD_ITERS: u64 = 2_000_000;

/// What one yardstick sample takes on the reference box in its fast
/// state; yardstick-normalized seconds are real seconds there.
pub const YARD_NOMINAL_S: f64 = 2.0e-3;

/// One timed stretch of the yardstick.
#[derive(Clone, Copy, Debug)]
pub struct Yard {
    pub start: Instant,
    pub end: Instant,
    /// Median seconds of the three sub-samples.
    pub s: f64,
}

/// The yardstick: a fixed, register-only dependency chain of multiply-adds
/// (no memory, no crate under test), timed three times; the median rides
/// out an interrupt. The reference box's cores change speed by ±14 % from
/// one second to the next and a yardstick taken next to a measurement
/// tracks most of that, so host timings are reported relative to it.
pub fn yardstick() -> Yard {
    let start = Instant::now();
    let mut samples = [0.0f64; 3];
    for sample in &mut samples {
        let t = Instant::now();
        let mut x = 1u64;
        for _ in 0..YARD_ITERS {
            x = std::hint::black_box(
                x.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            );
        }
        std::hint::black_box(x);
        *sample = t.elapsed().as_secs_f64();
    }
    Yard {
        start,
        end: Instant::now(),
        s: median(&samples),
    }
}

/// How much slower than nominal the machine ran over the stretch these
/// yardsticks bracket and sample (1.0 = nominal); dividing a raw host
/// time by it gives yardstick-normalized seconds.
pub fn slowdown(yards: &[Yard]) -> f64 {
    yards.iter().map(|y| y.s).sum::<f64>() / yards.len() as f64 / YARD_NOMINAL_S
}

fn proc_status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set (`VmHWM`) in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    proc_status_kib("VmHWM:").map(|k| k / 1024.0)
}

/// Where the numbers were taken: they only compare within one host tag.
#[derive(Clone, Debug)]
pub struct HostTag {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl HostTag {
    pub fn collect() -> HostTag {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let first_line = |cmd: &str, args: &[&str]| -> String {
            std::process::Command::new(cmd)
                .args(args)
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .and_then(|s| s.lines().next().map(str::to_string))
                .unwrap_or_else(|| "unknown".to_string())
        };
        HostTag {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1).next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        assert_ne!(Rng::lane(1, 0).next_u64(), Rng::lane(1, 1).next_u64());
        let mut r = Rng::new(9);
        assert!((0..100).all(|_| (3..=5).contains(&r.range(3, 5))));
    }
}
