//! A minimal, dependency-free benchmark harness with a Criterion-flavoured
//! surface.
//!
//! The workspace builds with no external crates (see the dependency policy
//! in `DESIGN.md`), so the `[[bench]]` targets cannot link the real
//! `criterion`. This module vendors the small slice of its API the suite
//! uses — groups, `bench_function`/`bench_with_input`, `BenchmarkId`,
//! element throughput, and the `criterion_group!`/`criterion_main!` macros —
//! over plain [`std::time::Instant`] wall-clock timing.
//!
//! Method: each benchmark is calibrated so one batch of the routine runs for
//! roughly five milliseconds, then `sample_size` batches are timed and the
//! *median* nanoseconds per iteration reported (the median is robust to
//! scheduler noise, which is all the statistics the paper's Tables 7–8
//! comparisons need).

use std::fmt;
use std::time::Instant;

/// Target wall-clock time of one timed batch.
const BATCH_TARGET_NS: u128 = 5_000_000;

/// Top-level harness handle; one per process, passed to every registered
/// benchmark function by [`criterion_group!`].
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_owned(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// Identifies one benchmark within a group: a function name, an optional
/// parameter, or both.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id with a function name and a parameter, rendered `name/param`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }

    /// An id carrying only a parameter value.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self(parameter.to_string())
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
}

/// A group of benchmarks sharing a name prefix, sample count, and
/// throughput annotation.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Sets how many timed batches each benchmark takes (minimum 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Times `routine` under `id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.sample_size);
        routine(&mut bencher);
        self.report(&id.to_string(), &bencher);
        self
    }

    /// Times `routine` under `id`, passing it a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size);
        routine(&mut bencher, input);
        self.report(&id.0, &bencher);
        self
    }

    /// Ends the group (parity with the Criterion API; reporting is
    /// per-benchmark, so there is nothing left to flush).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, bencher: &Bencher) {
        let Some(median_ns) = bencher.median_ns else {
            println!("{}/{id:<40} no measurement", self.name);
            return;
        };
        let mut line = format!("{}/{id}", self.name);
        line = format!("{line:<56} {:>14}/iter", format_ns(median_ns));
        if let Some(Throughput::Elements(n)) = self.throughput {
            if median_ns > 0.0 {
                let per_sec = n as f64 * 1e9 / median_ns;
                line = format!("{line}  {per_sec:>12.3e} elem/s");
            }
        }
        println!("{line}");
    }
}

/// Runs and times one benchmark routine.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    median_ns: Option<f64>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            median_ns: None,
        }
    }

    /// Calibrates a batch size, then times `sample_size` batches of
    /// `routine` and records the median time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let batch = calibrate(&mut routine);
        let mut samples: Vec<f64> = (0..self.sample_size)
            .map(|_| time_batch(&mut routine, batch))
            .collect();
        self.median_ns = Some(median(&mut samples));
    }
}

/// Doubles a batch until it runs long enough to time reliably, then
/// scales it to the target batch duration.
fn calibrate<O>(routine: &mut impl FnMut() -> O) -> u64 {
    let mut batch: u64 = 1;
    let per_iter_ns = loop {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= 100_000 || batch >= 1 << 20 {
            break (elapsed / u128::from(batch)).max(1);
        }
        batch *= 2;
    };
    u64::try_from((BATCH_TARGET_NS / per_iter_ns).clamp(1, 1 << 24)).expect("clamped to u64 range")
}

/// Nanoseconds per iteration over one batch of `batch` runs.
fn time_batch<O>(routine: &mut impl FnMut() -> O, batch: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..batch {
        std::hint::black_box(routine());
    }
    start.elapsed().as_nanos() as f64 / batch as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times several routines like [`measure`], but **interleaved**: each of
/// the `sample_size` rounds times one calibrated batch of every routine in
/// turn, so a host that changes speed mid-run slows all of them alike and
/// their ratios stay meaningful. Returns each routine's median
/// nanoseconds per iteration, in order.
pub fn measure_interleaved(sample_size: usize, routines: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let batches: Vec<u64> = routines.iter_mut().map(calibrate).collect();
    let mut samples = vec![Vec::with_capacity(sample_size.max(2)); routines.len()];
    for _ in 0..sample_size.max(2) {
        for ((routine, &batch), times) in routines.iter_mut().zip(&batches).zip(&mut samples) {
            times.push(time_batch(routine, batch));
        }
    }
    samples.iter_mut().map(|times| median(times)).collect()
}

/// Times `routine` exactly like [`Bencher::iter`] (calibrated batches,
/// median of `sample_size` samples) and returns the median nanoseconds per
/// iteration — the programmatic entry point `perf_report` uses to emit
/// machine-readable numbers instead of console lines.
pub fn measure<O>(sample_size: usize, routine: impl FnMut() -> O) -> f64 {
    let mut bencher = Bencher::new(sample_size.max(2));
    bencher.iter(routine);
    bencher.median_ns.expect("iter records a median")
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Registers benchmark functions under a group name, Criterion-style:
/// `criterion_group!(benches, bench_a, bench_b)` defines `fn benches()`
/// running each with a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        /// Runs this group's benchmark targets.
        pub fn $name() {
            let mut criterion = $crate::crit::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main` running the given [`criterion_group!`] groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("strip", 1000).0, "strip/1000");
        assert_eq!(BenchmarkId::from_parameter("lru").0, "lru");
    }

    #[test]
    fn bencher_measures_something() {
        let mut group = Criterion::default().benchmark_group("selftest");
        group.sample_size(2);
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1u64 + 1));
            ran = true;
        });
        assert!(ran);
        group.finish();
    }

    #[test]
    fn measure_returns_positive_medians() {
        let ns = measure(2, || std::hint::black_box(3u64).wrapping_mul(7));
        assert!(ns > 0.0);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.340 us");
        assert_eq!(format_ns(12_340_000.0), "12.340 ms");
        assert_eq!(format_ns(2.5e9), "2.500 s");
    }
}
