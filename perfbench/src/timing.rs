//! Wall-clock timing and the interference calibration kernel.
//!
//! The benchmark was tuned on a shared 2-vCPU machine whose CPU runs
//! slower in bursts lasting 0.1 s to several seconds, and whose
//! hypervisor at times steals several seconds a minute. Each measured
//! interval is timed as the thread's on-CPU time, which leaves steal
//! out, and a fixed kernel that uses no repository code is timed next to
//! it; the interval is scaled by `(KERNEL_REF_S / adjacent kernel
//! time) ^ KERNEL_GAIN`: the time it would have taken on a machine where
//! the kernel runs in [`KERNEL_REF_S`]. See the README for the measured
//! effect of each step.

use crate::host;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Time `work` by the wall clock, in seconds. The benchmark reads the
/// wall clock only here: it times the program from outside.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    // detlint: allow(R1) -- benchmark harness: times the program from outside
    let t = std::time::Instant::now();
    let out = work();
    (out, t.elapsed().as_secs_f64())
}

/// The kernel's typical time on the tuning box (a 2.0 GHz Xeon vCPU
/// shared with other tenants): the reference every corrected interval is
/// scaled to. A constant rather than the run's own fastest sample,
/// because a run can sit in a slow period from start to end.
pub const KERNEL_REF_S: f64 = 340e-6;

/// How much harder than the kernel the program slows down in a slow
/// state: an interval is scaled by `(KERNEL_REF_S / kernel) ^ KERNEL_GAIN`.
/// Across runs on the tuning box the simulation's raw rate fell as the
/// kernel time to a power of 1.1–1.9, and on ten same-seed passes the
/// spread of the corrected time was smallest near 1.5–1.75 (see the
/// README).
const KERNEL_GAIN: f64 = 1.5;

/// The calibration kernel: a fixed arithmetic loop, then a fixed mix of
/// the operations the simulator's hot paths are made of (ordered-map
/// inserts and lookups over a few thousand keys, and small heap
/// allocations). It starts from empty state on every call and uses no
/// repository code. The map-and-allocation half tracks the simulator's
/// slow bursts far better than arithmetic alone (see the README).
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table = [0u64; 256];
    let mut acc: u64 = 0;
    for i in 0..black_box(40_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x & 0xFF) as usize;
        table[slot] = table[slot].wrapping_add(x.rotate_left((i & 63) as u32));
        acc = acc.wrapping_mul(0x100_0000_01B3) ^ table[(acc & 0xFF) as usize];
    }
    let mut map = BTreeMap::new();
    let mut bufs: Vec<Vec<u8>> = Vec::new();
    for i in 0..black_box(600u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 5_000, i);
        if let Some(v) = map.get(&(x.rotate_left(9) % 5_000)) {
            acc ^= *v;
        }
        if i % 4 == 0 {
            bufs.push(vec![x as u8; 64 + (x % 256) as usize]);
        }
    }
    acc ^= bufs.iter().map(|b| b.len() as u64).sum::<u64>();
    black_box(acc)
}

/// Intervals at least this long are corrected from on-CPU time, shorter
/// ones from wall time (see [`Interval::time`]).
const LONG_S: f64 = 0.05;

/// One measured interval: its wall time, the thread's on-CPU time over it
/// (the wall time where that is not available), and the mean of the
/// kernel samples taken just before and just after it.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub wall: f64,
    pub cpu: f64,
    pub kernel: f64,
}

impl Interval {
    /// On-CPU time scaled to a machine whose kernel takes
    /// [`KERNEL_REF_S`]. Meant for sums of many intervals, where the
    /// scheduler-tick steps of on-CPU time cancel.
    pub fn corrected(self) -> f64 {
        self.cpu * self.scale()
    }

    fn scale(self) -> f64 {
        (KERNEL_REF_S / self.kernel).powf(KERNEL_GAIN)
    }

    /// The interval's corrected time as one of a set of repeats: from
    /// on-CPU time when the interval is long, from wall time when it is
    /// short, because a short interval's on-CPU time is a scheduler tick
    /// or two whatever it really took.
    pub fn time(self) -> f64 {
        let base = if self.wall >= LONG_S {
            self.cpu
        } else {
            self.wall
        };
        base * self.scale()
    }
}

/// Times intervals of work, each bracketed by kernel samples, and keeps
/// every kernel sample so the run's calm speed can be found afterwards.
#[derive(Debug, Default)]
pub struct Meter {
    /// Every kernel sample, in order.
    pub samples: Vec<f64>,
}

impl Meter {
    /// A meter holding `warmup` kernel samples taken back to back.
    pub fn new(warmup: usize) -> Meter {
        let mut m = Meter::default();
        for _ in 0..warmup {
            m.sample();
        }
        m
    }

    fn sample(&mut self) -> f64 {
        let s = timed(kernel).1;
        self.samples.push(s);
        s
    }

    /// Run `work` as one interval bracketed by kernel samples. The
    /// closing sample of one interval opens the next one.
    pub fn measure<T>(&mut self, work: impl FnOnce() -> T) -> (T, Interval) {
        let before = match self.samples.last() {
            Some(&s) => s,
            None => self.sample(),
        };
        let cpu0 = host::thread_schedstat();
        let (out, wall) = timed(work);
        let cpu = match (cpu0, host::thread_schedstat()) {
            (Some(a), Some(b)) => b.0 - a.0,
            _ => wall,
        };
        let after = self.sample();
        let kernel = 0.5 * (before + after);
        (out, Interval { wall, cpu, kernel })
    }
}

/// The fastest kernel sample over every meter: the machine's calm speed.
pub fn calm<'a>(meters: impl IntoIterator<Item = &'a Meter>) -> f64 {
    meters
        .into_iter()
        .flat_map(|m| m.samples.iter().copied())
        .fold(f64::INFINITY, f64::min)
}

/// Median of `sample / calm` over every kernel sample: how much slower
/// than calm the machine typically ran.
pub fn slowdown_p50<'a>(meters: impl IntoIterator<Item = &'a Meter> + Clone) -> f64 {
    let calm = calm(meters.clone());
    let mut ratios: Vec<f64> = meters
        .into_iter()
        .flat_map(|m| m.samples.iter().map(move |s| s / calm))
        .collect();
    median(&mut ratios)
}

/// Median of the times of repeats of the same interval.
pub fn median_time<'a>(repeats: impl IntoIterator<Item = &'a Interval>) -> f64 {
    let mut values: Vec<f64> = repeats.into_iter().map(|i| i.time()).collect();
    median(&mut values)
}

/// Median of a sample (sorts in place); 0 for an empty one, which only
/// happens when every repeat of an interval failed, and the output checks
/// report that.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}
