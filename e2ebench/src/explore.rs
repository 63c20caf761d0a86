//! The explore workloads: what `cachedse sweep` runs, on every kernel trace
//! of one side, in round-robin rounds.
//!
//! One op is: `read_din` of the trace's Dinero bytes, strip, the default
//! engine with no thread pin, then the frontier at K ∈ {5, 10, 15, 20} %.
//! Each round runs one op on every trace in turn, with a yardstick sample
//! before each. An op's time is its best round after dividing by the round's
//! host factor (see [`crate::probe`]): the host changes speed for stretches
//! of seconds to minutes, and that minimum is what stays put.

use std::hint::black_box;
use std::time::Instant;

use cachedse_bench::alloc_track;
use cachedse_core::{prepare_stripped, Engine, Exploration, ExplorationResult, MissBudget};
use cachedse_serve::TraceSide;
use cachedse_sim::{simulate, CacheConfig};
use cachedse_trace::io::{read_din, write_din};
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

use crate::metrics::{self, Metrics, Outcome, MIB};
use crate::probe::{Yardstick, REFERENCE_MS};
use crate::spans::{self_times, Tracer};

/// The paper's budget grid, as fractions of the maximum miss count.
pub const FRACTIONS: [f64; 4] = [0.05, 0.10, 0.15, 0.20];

/// Layers an op's time splits into, each a span directly under the op.
const OP_LAYERS: [&str; 4] = [
    "trace.read_din",
    "trace.strip",
    "core.engine",
    "core.frontier",
];

/// One kernel trace, ready to sweep.
#[derive(Clone, Debug)]
pub struct Input {
    /// `kernel.side`, e.g. `compress.data`.
    pub name: String,
    /// The captured trace.
    pub trace: Trace,
    /// The trace as Dinero text, the bytes each op parses.
    pub din: Vec<u8>,
}

/// How to run an explore workload.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which half of each kernel capture to sweep.
    pub side: TraceSide,
    /// Seeds the kernel captures.
    pub seed: u64,
    /// Measuring time; whole rounds run until it has passed.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Kernel names to capture.
    pub kernels: Vec<&'static str>,
    /// Captures of each kernel, each with its own seed derived from `seed`.
    /// A kernel's op time is the mean of its captures' best times, so the
    /// metrics follow the kernel and not one seed's input data.
    pub variants: usize,
    /// Set-ups to time; `setup_s` is the fastest, host-corrected.
    pub setups: usize,
    /// Rounds run even when `seconds` has passed.
    pub min_rounds: usize,
}

/// Captures every kernel of `kernels` with `seed` and writes its `side` as
/// Dinero bytes: the workload's set-up.
///
/// # Errors
///
/// An unknown kernel name, or a failed write into memory.
pub fn capture(
    kernels: &[&str],
    side: TraceSide,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<Input>, String> {
    kernels
        .iter()
        .enumerate()
        .map(|(i, &name)| {
            let kernel =
                cachedse_workloads::by_name(name).ok_or(format!("unknown kernel {name}"))?;
            let run = tr.span("workloads.capture", i as u64, |_| {
                kernel.capture_with_seed(seed)
            });
            let (trace, tag) = match side {
                TraceSide::Data => (run.data, "data"),
                TraceSide::Instr => (run.instr, "instr"),
            };
            let mut din = Vec::new();
            write_din(&mut din, &trace).map_err(|e| e.to_string())?;
            Ok(Input {
                name: format!("{name}.{tag}"),
                trace,
                din,
            })
        })
        .collect()
}

/// The output of one op.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// The analysed design space.
    pub exploration: Exploration,
    /// The frontier at each of [`FRACTIONS`].
    pub results: Vec<ExplorationResult>,
    /// Peak heap growth inside the engine, when tracing.
    pub engine_peak: u64,
}

/// One op: parse, strip, analyse with the default engine, and query the
/// four budgets.
///
/// # Errors
///
/// A parse or exploration error, as text.
pub fn sweep(din: &[u8], tr: &mut Tracer, op: u64) -> Result<Sweep, String> {
    tr.span("op", op, |tr| {
        let trace = tr
            .span("trace.read_din", op, |_| read_din(din))
            .map_err(|e| e.to_string())?;
        let stripped = tr.span("trace.strip", op, |_| StrippedTrace::from_trace(&trace));
        let mut engine_peak = 0;
        let exploration = tr
            .span("core.engine", op, |tr| {
                if !tr.is_on() {
                    return prepare_stripped(&stripped, None, Engine::default(), None);
                }
                let mark = alloc_track::mark();
                let e = prepare_stripped(&stripped, None, Engine::default(), None);
                engine_peak = alloc_track::peak_since(mark);
                e
            })
            .map_err(|e| e.to_string())?;
        let results = tr
            .span("core.frontier", op, |_| {
                FRACTIONS
                    .iter()
                    .map(|&f| exploration.result(MissBudget::FractionOfMax(f)))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        Ok(Sweep {
            exploration: black_box(exploration),
            results,
            engine_peak,
        })
    })
}

/// The correctness reference of one trace: the depth-first engine's
/// exploration, and whether a sample of its frontier points replays on the
/// simulator to the same miss counts.
#[derive(Clone, Debug)]
pub struct Reference {
    /// The depth-first engine's exploration of the trace.
    pub exploration: Exploration,
    /// Every sampled frontier point's `misses_at` equals the simulator's.
    pub simulator_agrees: bool,
}

/// Builds the reference for `input`.
///
/// # Errors
///
/// An exploration error, as text.
pub fn reference(input: &Input, tr: &mut Tracer, op: u64) -> Result<Reference, String> {
    let stripped = StrippedTrace::from_trace(&input.trace);
    let exploration = tr
        .span("core.dfs_ref", op, |_| {
            prepare_stripped(&stripped, None, Engine::DepthFirst, None)
        })
        .map_err(|e| e.to_string())?;
    let simulator_agrees = simulator_agrees(&input.trace, &exploration)?;
    Ok(Reference {
        exploration,
        simulator_agrees,
    })
}

/// Ways above which a frontier point is not replayed: an LRU set costs the
/// simulator time in proportion to its ways, and the shallow points of a
/// data trace need thousands.
const MAX_REPLAY_WAYS: u32 = 16;

/// Replays, at the smallest and largest budget, the shallowest frontier
/// point with at most [`MAX_REPLAY_WAYS`] ways and the deepest point on the
/// LRU simulator.
fn simulator_agrees(trace: &Trace, exploration: &Exploration) -> Result<bool, String> {
    for f in [FRACTIONS[0], FRACTIONS[3]] {
        let result = exploration
            .result(MissBudget::FractionOfMax(f))
            .map_err(|e| e.to_string())?;
        let pairs = result.pairs();
        let narrow = pairs.iter().find(|p| p.associativity <= MAX_REPLAY_WAYS);
        for p in narrow.into_iter().chain(pairs.last()) {
            let config = CacheConfig::lru(p.depth, p.associativity).map_err(|e| e.to_string())?;
            let simulated = simulate(trace, &config).avoidable_misses();
            if exploration.misses_at(p.depth, p.associativity) != Some(simulated) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// The correctness gate of one op: its profiles are byte-identical to the
/// depth-first reference, its statistics match, every frontier equals the
/// reference's, and the reference itself agrees with the simulator.
#[must_use]
pub fn gate(reference: &Reference, sweep: &Sweep) -> bool {
    let r = &reference.exploration;
    reference.simulator_agrees
        && sweep.exploration.profiles() == r.profiles()
        && sweep.exploration.stats() == r.stats()
        && sweep.results.len() == FRACTIONS.len()
        && FRACTIONS
            .iter()
            .zip(&sweep.results)
            .all(|(&f, got)| r.result(MissBudget::FractionOfMax(f)).as_ref() == Ok(got))
}

/// Runs the workload and returns its end-to-end (or, when tracing,
/// per-layer) metrics.
///
/// # Errors
///
/// A set-up failure: unknown kernel, or a reference that cannot be built.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut tr = Tracer::new(cfg.trace);
    let mut off = Tracer::new(false);

    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    let mut setup_yard = Yardstick::default();
    for _ in 0..cfg.setups.max(1) {
        let factor = setup_yard.measure_round();
        let start = Instant::now();
        inputs = Vec::new();
        for (j, seed) in variant_seeds(cfg.seed, cfg.variants)
            .into_iter()
            .enumerate()
        {
            for mut input in capture(&cfg.kernels, cfg.side, seed, &mut tr)? {
                if j > 0 {
                    input.name = format!("{}#{j}", input.name);
                }
                inputs.push(input);
            }
        }
        setup_s.push(start.elapsed().as_secs_f64() / factor);
    }
    report_setups(&setup_s);
    let n = inputs.len();
    let refs = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| reference(input, &mut tr, i as u64))
        .collect::<Result<Vec<_>, _>>()?;

    let mut yard = Yardstick::default();
    // Per trace: host-corrected op seconds of untraced and of traced rounds,
    // and raw op seconds of untraced rounds.
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); n];
    // Host-corrected op seconds of each untraced round in which every op
    // passed the gate.
    let mut round_s = Vec::new();
    let mut heap_peak = 0u64;
    let mut engine_peak = 0u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut round = 0usize;
    while crate::another_round(start, cfg.seconds, cfg.min_rounds, round) {
        // A traced run alternates traced and untraced rounds, so the
        // difference between the two is the tracing overhead.
        let tracing = cfg.trace && round.is_multiple_of(2);
        let mut times = vec![None; n];
        for (i, time) in times.iter_mut().enumerate() {
            yard.sample();
            let op = (round * n + i) as u64;
            let mark = alloc_track::mark();
            let t0 = Instant::now();
            let out = if tracing {
                sweep(&inputs[i].din, &mut tr, op)
            } else {
                sweep(&inputs[i].din, &mut off, op)
            };
            let dt = t0.elapsed().as_secs_f64();
            let peak = alloc_track::peak_since(mark);
            attempted += 1;
            match out {
                Ok(s) if gate(&refs[i], &s) => {
                    *time = Some(dt);
                    engine_peak = engine_peak.max(s.engine_peak);
                    if !tracing {
                        heap_peak = heap_peak.max(peak);
                    }
                }
                Ok(_) => {
                    failed += 1;
                    eprintln!("{}: op {op} failed the correctness gate", inputs[i].name);
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("{}: op {op} failed: {e}", inputs[i].name);
                }
            }
        }
        let factor = yard.close_round();
        if !tracing && times.iter().all(Option::is_some) {
            round_s.push(times.iter().flatten().sum::<f64>() / factor);
        }
        for (i, dt) in times.iter().enumerate() {
            let Some(dt) = *dt else { continue };
            if tracing {
                traced[i].push(dt / factor);
            } else {
                plain[i].push(dt / factor);
                raw[i].push(dt);
            }
        }
        round += 1;
    }

    let best: Vec<f64> = plain.iter().map(|t| metrics::min(t)).collect();
    let raw_best: Vec<f64> = raw.iter().map(|t| metrics::min(t)).collect();
    report(&inputs, &best, &raw_best, yard.rounds());
    let best = per_kernel(&best, cfg.kernels.len());
    let mut m = Metrics::default();
    if cfg.trace {
        layer_metrics(&mut m, &tr, &inputs, &traced, &best, cfg);
        m.set("core.engine_heap_mib", engine_peak as f64 / MIB);
        set_host(&mut m, yard.rounds());
        write_spans(&tr, cfg);
    } else {
        m.set("setup_s", metrics::min(&setup_s));
        metrics::set_op_metrics(&mut m, &best, n as f64 / metrics::min(&round_s));
        m.set("heap_mib", heap_peak as f64 / MIB);
        m.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// The capture seeds of `variants` captures: `seed` itself first.
#[must_use]
pub fn variant_seeds(seed: u64, variants: usize) -> Vec<u64> {
    (0..variants.max(1) as u64)
        .map(|j| seed.wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect()
}

/// Per-input values (inputs in variant-major order) folded to one value per
/// kernel: the mean over the kernel's captures.
fn per_kernel(values: &[f64], kernels: usize) -> Vec<f64> {
    let variants = values.len() / kernels.max(1);
    (0..kernels)
        .map(|k| (0..variants).map(|j| values[j * kernels + k]).sum::<f64>() / variants as f64)
        .collect()
}

/// Per-layer metrics from the spans. Each layer's figure is its self time in
/// the trace's best traced round, summed over kernels (each kernel the mean
/// over its captures).
fn layer_metrics(
    m: &mut Metrics,
    tr: &Tracer,
    inputs: &[Input],
    traced: &[Vec<f64>],
    plain_best: &[f64],
    cfg: &Config,
) {
    let setups = cfg.setups.max(1) as f64;
    let variants = cfg.variants.max(1) as f64;
    let spans = tr.spans();
    let own = self_times(spans);
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum_named = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns())
            .sum()
    };
    m.set(
        "workloads.capture_ms",
        ms(sum_named("workloads.capture")) / setups / variants,
    );
    m.set("core.dfs_ref_ms", ms(sum_named("core.dfs_ref")) / variants);

    // The best traced op span of each trace, found by its op id.
    let n = inputs.len() as u64;
    let mut best_op: Vec<Option<(u64, usize)>> = vec![None; inputs.len()];
    for (idx, s) in spans.iter().enumerate() {
        if s.name != "op" {
            continue;
        }
        let i = (s.op % n) as usize;
        if best_op[i].is_none_or(|(d, _)| s.duration_ns() < d) {
            best_op[i] = Some((s.duration_ns(), idx));
        }
    }
    let mut layer_ns = [0u64; OP_LAYERS.len()];
    let mut op_ns = 0u64;
    for &(d, idx) in best_op.iter().flatten() {
        op_ns += d;
        for (s, &own_ns) in spans.iter().zip(&own) {
            if s.parent == Some(idx) {
                if let Some(k) = OP_LAYERS.iter().position(|&l| l == s.name) {
                    layer_ns[k] += own_ns;
                }
            }
        }
    }
    let covered: u64 = layer_ns.iter().sum();
    for (k, name) in [
        "trace.read_din_ms",
        "trace.strip_ms",
        "core.engine_ms",
        "core.frontier_ms",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, ms(layer_ns[k]) / variants);
        eprintln!(
            "layer {:<16} {:>10.3} ms  {:>5.1} % of op time",
            OP_LAYERS[k],
            ms(layer_ns[k]) / variants,
            100.0 * layer_ns[k] as f64 / op_ns.max(1) as f64
        );
    }
    m.set("layers.op_ms", ms(op_ns) / variants);
    m.set("layers.coverage", covered as f64 / op_ns.max(1) as f64);
    let traced_best: Vec<f64> = traced.iter().map(|t| metrics::min(t)).collect();
    let traced_best = per_kernel(&traced_best, cfg.kernels.len());
    m.set(
        "trace.overhead_ms",
        (metrics::gmean(&traced_best) - metrics::gmean(plain_best)) * 1e3,
    );
    m.set(
        "trace.refs",
        inputs.iter().map(|i| i.trace.len() as f64).sum::<f64>() / variants,
    );
    m.set(
        "trace.unique",
        inputs
            .iter()
            .map(|i| StrippedTrace::from_trace(&i.trace).unique_len() as f64)
            .sum::<f64>()
            / variants,
    );
}

/// Host-state evidence shared by every traced run, from the fastest
/// yardstick sample of each round.
pub fn set_host(m: &mut Metrics, rounds: &[f64]) {
    m.set("host.probe_ms", metrics::min(rounds));
    m.set("host.probe_max_ms", metrics::max(rounds));
    m.set("host.factor", metrics::median(rounds) / REFERENCE_MS);
    m.set("host.rounds", rounds.len() as f64);
}

/// One line on standard error per op: its host-corrected and raw best.
fn report(inputs: &[Input], best: &[f64], raw_best: &[f64], rounds: &[f64]) {
    for ((input, b), r) in inputs.iter().zip(best).zip(raw_best) {
        eprintln!(
            "{:<16} {:>8} refs  best {:>9.3} ms (raw {:>9.3} ms)",
            input.name,
            input.trace.len(),
            b * 1e3,
            r * 1e3
        );
    }
    report_host(rounds);
}

/// Every set-up time of the run, on standard error.
pub fn report_setups(setup_s: &[f64]) {
    let times: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("set-ups, s: {}", times.join(" "));
}

/// The yardstick's fastest sample per round, summarised on standard error.
pub fn report_host(rounds: &[f64]) {
    eprintln!(
        "yardstick ms, fastest per round: min {:.3} median {:.3} max {:.3} over {} rounds",
        metrics::min(rounds),
        metrics::median(rounds),
        metrics::max(rounds),
        rounds.len()
    );
}

fn write_spans(tr: &Tracer, cfg: &Config) {
    let side = match cfg.side {
        TraceSide::Data => "data",
        TraceSide::Instr => "instr",
    };
    let path = crate::out_dir().join(format!("spans-explore-{side}-{}.jsonl", cfg.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}
