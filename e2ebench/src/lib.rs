//! End-to-end and per-layer benchmark of the cachedse library.
//!
//! Three seeded workloads drive the public API in one process:
//! `explore-data` and `explore-instr` run what `cachedse sweep` runs on the
//! twelve kernel traces of one side, and `serve-mixed` drives a long-lived
//! in-process `Service` in a closed loop. See `README.md` for why each
//! workload exists and which layer each metric times.

pub mod explore;
pub mod metrics;
pub mod probe;
pub mod serve;
pub mod spans;

use std::path::PathBuf;
use std::time::Instant;

/// The twelve kernels, in the paper's table order.
pub const KERNELS: [&str; 12] = [
    "adpcm", "bcnt", "blit", "compress", "crc", "des", "engine", "fir", "g3fax", "pocsag", "qurt",
    "ucbqsort",
];

/// Where runs write spans and temporary stores: `out/` beside this
/// package's manifest, inside the checkout that built it.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Whether another round should start: always until `min_rounds` have run,
/// then while it is expected to end by `seconds` after `start`, give or take
/// half a round, at the mean round time so far.
#[must_use]
pub fn another_round(start: Instant, seconds: f64, min_rounds: usize, done: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done < min_rounds || elapsed + 0.5 * elapsed / (done.max(1) as f64) < seconds
}
