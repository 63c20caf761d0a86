//! The host yardstick: a fixed compute loop owned by the benchmark, timed
//! several times per round.
//!
//! The host changes speed by itself, by up to 1.6× for minutes at a time, so
//! even an op's best round reads slow when a whole run falls in a slow
//! stretch. The yardstick's fastest sample in a round gives the round's host
//! speed, and each explore op time of the round is scaled to the speed at
//! which the yardstick takes [`REFERENCE_MS`]. Serve scales its times once,
//! by the run's fastest sample. The yardstick is integer work on an
//! L2-resident array (xor, count-trailing-zeros bucketing, multiply), like
//! the engine's fold, so it slows as the engine does. Only benchmark code
//! runs while it is timed, so no change to the library moves it.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics;

/// Yardstick time at the reference host speed: close to the fastest this
/// benchmark's 2-vCPU build host ever ran it.
pub const REFERENCE_MS: f64 = 1.8;

/// Yardstick samples taken when a round has no op to interleave them with.
pub const SAMPLES: usize = 12;

/// Words in the yardstick's array (64 KiB).
const WORDS: usize = 1 << 14;
/// Passes over the array per sample.
const PASSES: u32 = 96;

/// Samples the yardstick and keeps each round's fastest sample.
#[derive(Debug, Default)]
pub struct Yardstick {
    buf: Vec<u32>,
    samples: Vec<f64>,
    rounds: Vec<f64>,
}

impl Yardstick {
    /// A yardstick whose array is already allocated.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: vec![7; WORDS],
            ..Self::default()
        }
    }

    /// Times one run of the yardstick.
    pub fn sample(&mut self) {
        self.buf.resize(WORDS, 7);
        let start = Instant::now();
        let mut hist = [0u32; 33];
        let mut x: u32 = 0x1234_5678;
        for pass in 0..PASSES {
            for v in &mut self.buf {
                let a = *v;
                hist[(a ^ x).trailing_zeros() as usize] += 1;
                *v = a.wrapping_mul(0x9E37_79B1).wrapping_add(pass);
                x = x.rotate_left(5) ^ a;
            }
        }
        black_box(hist);
        self.samples.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Takes [`SAMPLES`] samples and closes the round.
    pub fn measure_round(&mut self) -> f64 {
        for _ in 0..SAMPLES {
            self.sample();
        }
        self.close_round()
    }

    /// Ends the round and returns its host factor: how many times slower
    /// than the reference speed the host ran. Divide a round's times by it.
    pub fn close_round(&mut self) -> f64 {
        let fastest = metrics::min(&self.samples);
        self.samples.clear();
        self.rounds.push(fastest);
        fastest / REFERENCE_MS
    }

    /// The fastest sample of every closed round, in milliseconds.
    #[must_use]
    pub fn rounds(&self) -> &[f64] {
        &self.rounds
    }
}
