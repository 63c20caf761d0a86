//! The `serve-mixed` workload: a closed loop into one long-lived in-process
//! [`Service`].
//!
//! The service has 2 workers, serial intra-job analysis, an artifact cache
//! of 8 traces and a [`DiskStore`] under `out/`. Set-up starts it and warms
//! both the store (every kernel trace analysed and saved once) and the cache.
//! One submitting thread then keeps one job per worker in flight: it parses each
//! JSONL line with [`JobSpec::parse`], submits it, waits for the oldest
//! outcome and renders it with [`outcome_json`]. Replies are held and
//! checked after the round, outside its time.
//!
//! A round is a fixed sequence of `round_jobs` job slots. The slot decides
//! the job (Zipf over the 24 kernel traces, a budget, about 20 % `digest`
//! jobs and about 10 % fresh `pattern` jobs), so every round does the same
//! work; only the pattern seeds change, so that each pattern job stays a new
//! analysis plus a store write. A slot's time is its best round.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cachedse_bench::alloc_track;
use cachedse_core::{DesignSpaceExplorer, Engine, Exploration, ExplorationResult, MissBudget};
use cachedse_json::Value;
use cachedse_serve::{
    outcome_json, ArtifactKey, HistogramSnapshot, JobOutcome, JobSpec, PatternSpec, Service,
    ServiceConfig, StatsSnapshot, TraceSide, TraceSource,
};
use cachedse_store::DiskStore;
use cachedse_trace::generate;
use cachedse_trace::rng::SplitMix64;
use cachedse_trace::strip::StrippedTrace;

use crate::explore::{report_host, report_setups, set_host, FRACTIONS};
use crate::metrics::{self, Metrics, Outcome, MIB};
use crate::probe::{Yardstick, REFERENCE_MS, SAMPLES};
use crate::spans::{self_times, Tracer};

/// Absolute miss budgets drawn for half of the jobs.
const MISSES: [u64; 4] = [0, 10, 100, 1000];

/// Service workers, and the jobs the client keeps in flight: one per worker.
const WORKERS: usize = 2;

/// How to run the serve workload.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seeds the kernel captures, the job stream and the pattern traces.
    pub seed: u64,
    /// Measuring time; whole rounds run until it has passed.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Kernels whose data and instruction traces the jobs name.
    pub kernels: Vec<&'static str>,
    /// Set-ups to time; `setup_s` is the fastest.
    pub setups: usize,
    /// Rounds run even when `seconds` has passed.
    pub min_rounds: usize,
    /// Job slots per round.
    pub round_jobs: usize,
}

impl Config {
    /// The benchmark's settings: all twelve kernels.
    #[must_use]
    pub fn full(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            kernels: crate::KERNELS.to_vec(),
            setups: 7,
            min_rounds: 3,
            round_jobs: 1000,
        }
    }
}

/// One kernel trace the jobs can name, with its correctness reference.
#[derive(Clone, Debug)]
pub struct Target {
    /// Kernel name.
    pub name: &'static str,
    /// Which half of the capture.
    pub side: TraceSide,
    /// Content digest, as `digest` jobs spell it.
    pub digest: String,
    /// The depth-first engine's exploration of the trace.
    pub reference: Exploration,
    /// Trace length and unique references.
    pub refs: (usize, usize),
}

/// Captures every kernel with `seed` and builds, for each of its two
/// traces, the digest and the reference exploration. The order is a fixed
/// scramble of (kernel, side), so the Zipf hot set mixes kernels and sides
/// and does not depend on the seed.
///
/// # Errors
///
/// An unknown kernel, or an exploration error.
pub fn targets(
    kernels: &[&'static str],
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<Target>, String> {
    let mut all = Vec::new();
    for (i, &name) in kernels.iter().enumerate() {
        let kernel = cachedse_workloads::by_name(name).ok_or(format!("unknown kernel {name}"))?;
        let run = tr.span("workloads.capture", i as u64, |_| {
            kernel.capture_with_seed(seed)
        });
        for (side, trace) in [(TraceSide::Data, run.data), (TraceSide::Instr, run.instr)] {
            let op = all.len() as u64;
            let key = tr.span("trace.digest", op, |_| {
                ArtifactKey::of(&trace, trace.address_bits())
            });
            let reference = tr
                .span("core.dfs_ref", op, |_| {
                    DesignSpaceExplorer::new(&trace)
                        .engine(Engine::DepthFirst)
                        .prepare()
                })
                .map_err(|e| e.to_string())?;
            let refs = (trace.len(), StrippedTrace::from_trace(&trace).unique_len());
            all.push(Target {
                name,
                side,
                digest: key.digest.to_string(),
                reference,
                refs,
            });
        }
    }
    // Stepping by 7 visits every index when 7 does not divide the count.
    let n = all.len();
    let step = if n % 7 == 0 { 1 } else { 7 };
    Ok((0..n).map(|r| all[(r * step) % n].clone()).collect())
}

fn side_tag(side: TraceSide) -> &'static str {
    match side {
        TraceSide::Data => "data",
        TraceSide::Instr => "instr",
    }
}

/// The JSONL line of job `slot` in `round`.
///
/// The slot alone picks the kind, trace and budget; the round only changes
/// a pattern job's seed.
#[must_use]
pub fn job_line(seed: u64, round: u64, slot: u64, targets: &[Target]) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed ^ (slot + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let kind = rng.next_u64() % 100;
    let target = &targets[zipf(&mut rng, targets.len())];
    let budget = if rng.next_u64().is_multiple_of(2) {
        Value::object([(
            "fraction",
            Value::from(FRACTIONS[(rng.next_u64() % 4) as usize]),
        )])
    } else {
        Value::object([("misses", Value::from(MISSES[(rng.next_u64() % 4) as usize]))])
    };
    let trace = if kind < 10 {
        let len = 1000 + rng.next_u64() % 2000;
        let space = 128u32 << (rng.next_u64() % 3);
        let pattern_seed =
            SplitMix64::seed_from_u64(seed ^ round.rotate_left(32) ^ slot).next_u64();
        Value::object([
            ("pattern", Value::from("random")),
            ("len", Value::from(len)),
            ("space", Value::from(space)),
            ("seed", Value::from(pattern_seed >> 1)),
        ])
    } else if kind < 30 {
        Value::object([("digest", Value::from(target.digest.as_str()))])
    } else {
        Value::object([
            ("workload", Value::from(target.name)),
            ("side", Value::from(side_tag(target.side))),
            ("seed", Value::from(seed)),
        ])
    };
    Value::object([
        ("id", Value::from(format!("r{round}s{slot}"))),
        ("trace", trace),
        ("budget", budget),
    ])
    .render()
}

/// A Zipf(1) draw over `n` ranks.
fn zipf(rng: &mut SplitMix64, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    for r in 0..n {
        u -= 1.0 / (r + 1) as f64;
        if u < 0.0 {
            return r;
        }
    }
    n - 1
}

/// The frontier a job must return, computed directly: from the target's
/// reference for kernel and digest jobs, by a fresh depth-first exploration
/// for pattern jobs.
///
/// # Errors
///
/// A spec that names no known trace, or an exploration error.
pub fn expected(spec: &JobSpec, targets: &[Target]) -> Result<ExplorationResult, String> {
    let find = |pred: &dyn Fn(&Target) -> bool| {
        targets
            .iter()
            .find(|t| pred(t))
            .ok_or_else(|| format!("no target for {:?}", spec.trace))
    };
    let reference = match &spec.trace {
        TraceSource::Workload { name, side, .. } => {
            &find(&|t| t.name == name && t.side == *side)?.reference
        }
        TraceSource::Digest(d) => &find(&|t| t.digest == d.to_string())?.reference,
        TraceSource::Pattern(PatternSpec::Random { len, space, seed }) => {
            let trace = generate::uniform_random(*len, *space, *seed);
            return DesignSpaceExplorer::new(&trace)
                .engine(Engine::DepthFirst)
                .explore(spec.budget)
                .map_err(|e| e.to_string());
        }
        other => return Err(format!("unexpected trace source {other:?}")),
    };
    reference.result(spec.budget).map_err(|e| e.to_string())
}

/// The correctness gate of one reply: a success whose result equals the
/// direct exploration of the same spec.
#[must_use]
pub fn gate(outcome: &JobOutcome, expected: &ExplorationResult) -> bool {
    matches!(outcome, Ok(out) if out.result == *expected)
}

fn start_service(dir: &std::path::Path) -> Result<Service, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
    Ok(Service::start(ServiceConfig {
        workers: WORKERS,
        cache_capacity: 8,
        store: Some(Arc::new(store)),
        ..ServiceConfig::default()
    }))
}

/// Starts a service and runs one job per target, so every trace is in the
/// store and the last eight are in the cache.
fn set_up(dir: &std::path::Path, seed: u64, targets: &[Target]) -> Result<Service, String> {
    let service = start_service(dir)?;
    let ids = targets
        .iter()
        .map(|t| {
            service.submit_blocking(JobSpec {
                id: None,
                trace: TraceSource::Workload {
                    name: t.name.to_owned(),
                    side: t.side,
                    seed: Some(seed),
                },
                budget: MissBudget::FractionOfMax(0.1),
                max_index_bits: None,
                line_bits: 0,
                timeout_ms: None,
            })
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for id in ids {
        let (label, outcome) = service.wait(id);
        outcome.map_err(|e| format!("warm-up job {label}: {e}"))?;
    }
    Ok(service)
}

/// A reply held for the gate: slot, spec and outcome.
type Reply = (u64, JobSpec, JobOutcome);

/// Client-side timings of one round.
#[derive(Default)]
struct Round {
    wall: Duration,
    parse_us: Vec<f64>,
    render_us: Vec<f64>,
    submit_ms: Vec<f64>,
    frontier_ms: Vec<f64>,
    /// Latency by the reply's cache temperature: hit, warm, miss.
    by_cache: [Vec<f64>; 3],
}

impl Round {
    /// A round with room for `jobs` timings of each kind, so that filling it
    /// does not grow the heap while the round is measured.
    fn with_capacity(jobs: usize) -> Self {
        let v = || Vec::with_capacity(jobs);
        Self {
            wall: Duration::ZERO,
            parse_us: v(),
            render_us: v(),
            submit_ms: v(),
            frontier_ms: v(),
            by_cache: [v(), v(), v()],
        }
    }
}

/// Runs the workload and returns its end-to-end (or, when tracing,
/// per-layer) metrics.
///
/// # Errors
///
/// A set-up failure: unknown kernel, store directory, or a failed warm-up
/// job.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut tr = Tracer::new(cfg.trace);
    let mut off = Tracer::new(false);
    let targets = targets(&cfg.kernels, cfg.seed, &mut tr)?;

    let base = crate::out_dir().join(format!("store-{}", std::process::id()));
    let slots = cfg.round_jobs;
    // The benchmark's buffers that outlive a round are allocated before
    // `own` is read, so that the heap above `own` is the service's.
    let mut yard = Yardstick::new();
    let mut best = vec![f64::INFINITY; slots];
    let mut traced_best = vec![f64::INFINITY; slots];
    let mut replies: Vec<Reply> = Vec::with_capacity(slots);
    let mut setup_s = Vec::with_capacity(cfg.setups.max(1));
    let mut round_s = Vec::with_capacity(1024);
    let mut heap_peaks = Vec::with_capacity(1024);
    let mut rounds: Vec<Round> = Vec::new();
    let own = alloc_track::mark();

    // The long-lived service's set-up is the first set-up sample. Untraced
    // runs time one more set-up of a throwaway service after each of the
    // first rounds: a set-up lasts a second or two, and the host changes
    // speed over seconds, so the samples spread over the run as the rounds
    // do. `setup_s` is the fastest, as a job's time is its fastest round.
    let t0 = Instant::now();
    let service = set_up(&base.join("0"), cfg.seed, &targets)?;
    setup_s.push(t0.elapsed().as_secs_f64());

    let before = service.stats();
    let cache = service.cache();
    let (warm0, evict0, err0) = (cache.store_hits(), cache.evictions(), cache.store_errors());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut round = 0usize;
    while crate::another_round(start, cfg.seconds, cfg.min_rounds, round) {
        // Half the yardstick samples before the round and half after, while
        // no job is in flight. Only the run's fastest sample corrects the
        // figures: a job takes milliseconds, so scaling it by its own
        // round's factor adds noise.
        for _ in 0..SAMPLES / 2 {
            yard.sample();
        }
        let resident = alloc_track::mark().saturating_sub(own);
        let lines: Vec<String> = (0..slots)
            .map(|slot| job_line(cfg.seed, round as u64, slot as u64, &targets))
            .collect();
        let tracing = cfg.trace && round.is_multiple_of(2);
        let t = if tracing { &mut tr } else { &mut off };
        let mut r = Round::with_capacity(slots);
        let mut lat = vec![0.0; slots];
        let heap_mark = alloc_track::mark();
        let mut bad = t.span("round", round as u64, |t| {
            closed_loop(&service, &lines, t, &mut r, &mut lat, &mut replies)
        });
        let heap_peak = resident + alloc_track::peak_since(heap_mark);
        for _ in 0..SAMPLES / 2 {
            yard.sample();
        }
        yard.close_round();
        bad += check_replies(&mut replies, &targets, t, &mut r.frontier_ms);
        attempted += slots as u64;
        failed += bad;
        let sink = if tracing { &mut traced_best } else { &mut best };
        for (b, &l) in sink.iter_mut().zip(&lat) {
            *b = b.min(l);
        }
        if !tracing {
            round_s.push(r.wall.as_secs_f64());
            heap_peaks.push(heap_peak as f64);
        }
        // Only a traced run reports the client-side layers.
        if cfg.trace {
            rounds.push(r);
        }
        round += 1;
        if !cfg.trace && setup_s.len() < cfg.setups {
            let dir = base.join(setup_s.len().to_string());
            let t0 = Instant::now();
            let spare = set_up(&dir, cfg.seed, &targets)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            drop(spare.shutdown());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    report_setups(&setup_s);

    eprintln!(
        "{round} rounds of {slots} jobs; best round {:.3} s, median round {:.3} s; \
         service heap MiB per round: min {:.2} mean {:.2} max {:.2}",
        metrics::min(&round_s),
        metrics::median(&round_s),
        metrics::min(&heap_peaks) / MIB,
        metrics::mean(&heap_peaks) / MIB,
        metrics::max(&heap_peaks) / MIB,
    );
    report_host(yard.rounds());
    let mut m = Metrics::default();
    if cfg.trace {
        let after = service.stats();
        let cache = service.cache();
        let all = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        m.set("json.parse_us", metrics::median(&all(|r| &r.parse_us)));
        m.set("json.render_us", metrics::median(&all(|r| &r.render_us)));
        m.set(
            "serve.submit_wait_ms",
            metrics::median(&all(|r| &r.submit_ms)),
        );
        m.set(
            "core.frontier_ms",
            metrics::median(&all(|r| &r.frontier_ms)),
        );
        m.set("serve.hit_ms", metrics::median(&all(|r| &r.by_cache[0])));
        m.set("serve.warm_ms", metrics::median(&all(|r| &r.by_cache[1])));
        m.set("serve.miss_ms", metrics::median(&all(|r| &r.by_cache[2])));
        m.set(
            "serve.stage_load_ms",
            hist_mean_ms(&before.load, &after.load),
        );
        m.set(
            "serve.stage_analyze_ms",
            hist_mean_ms(&before.analyze, &after.analyze),
        );
        m.set(
            "serve.stage_frontier_ms",
            hist_mean_ms(&before.frontier, &after.frontier),
        );
        let jobs = (after.completed + after.failed - before.completed - before.failed).max(1);
        m.set(
            "serve.hit_ratio",
            (after.cache_hits - before.cache_hits) as f64 / jobs as f64,
        );
        m.set(
            "serve.analyses",
            (after.cache_misses - before.cache_misses) as f64,
        );
        m.set("store.warm_loads", (cache.store_hits() - warm0) as f64);
        m.set("store.evictions", (cache.evictions() - evict0) as f64);
        m.set("store.bytes", cache.stored_bytes() as f64);
        m.set("store.errors", (cache.store_errors() - err0) as f64);
        setup_layers(&mut m, &tr, &targets);
        client_coverage(&mut m, &tr);
        m.set(
            "trace.overhead_ms",
            (metrics::gmean(&traced_best) - metrics::gmean(&best)) * 1e3,
        );
        set_host(&mut m, yard.rounds());
        report_stats(&after);
        let path = crate::out_dir().join(format!("spans-serve-mixed-{}.jsonl", cfg.seed));
        if let Err(e) = tr.write_jsonl(&path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    } else {
        // The run's host factor: its fastest yardstick sample against the
        // reference. Each slot's best round and the best set-up come from
        // the run's fastest moments, and so does that sample.
        let factor = metrics::min(yard.rounds()) / REFERENCE_MS;
        eprintln!("host factor of the run {factor:.3}");
        let best: Vec<f64> = best.iter().map(|b| b / factor).collect();
        m.set("setup_s", metrics::min(&setup_s) / factor);
        metrics::set_op_metrics(
            &mut m,
            &best,
            slots as f64 / (metrics::min(&round_s) / factor),
        );
        m.set("heap_mib", metrics::mean(&heap_peaks) / MIB);
        m.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    }
    drop(service.shutdown());
    let _ = std::fs::remove_dir_all(&base);
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// One round of the closed loop. Fills `lat` with each slot's
/// submit-to-outcome seconds, pushes every reply onto `replies` for the
/// gate to check after the round, and returns the number of jobs that could
/// not be parsed or submitted.
fn closed_loop(
    service: &Service,
    lines: &[String],
    t: &mut Tracer,
    r: &mut Round,
    lat: &mut [f64],
    replies: &mut Vec<Reply>,
) -> u64 {
    let mut inflight = VecDeque::with_capacity(WORKERS);
    let mut bad = 0u64;
    let start = Instant::now();
    let mut next = 0;
    while next < lines.len() || !inflight.is_empty() {
        if next < lines.len() && inflight.len() < WORKERS {
            let slot = next as u64;
            next += 1;
            let t0 = Instant::now();
            let parsed = t.span("json.parse", slot, |_| {
                JobSpec::parse(&lines[slot as usize])
            });
            let t1 = Instant::now();
            r.parse_us.push((t1 - t0).as_secs_f64() * 1e6);
            let Ok(spec) = parsed else {
                bad += 1;
                continue;
            };
            let submitted = t.span("serve.submit", slot, |_| {
                service.submit_blocking(spec.clone())
            });
            let t2 = Instant::now();
            r.submit_ms.push((t2 - t1).as_secs_f64() * 1e3);
            match submitted {
                Ok(id) => inflight.push_back((id, t1, slot, spec)),
                Err(_) => bad += 1,
            }
            continue;
        }
        let Some((id, submitted_at, slot, spec)) = inflight.pop_front() else {
            break;
        };
        let (label, outcome) = t.span("serve.wait", slot, |_| service.wait(id));
        let done = Instant::now();
        let secs = (done - submitted_at).as_secs_f64();
        lat[slot as usize] = secs;
        let line = t.span("json.render", slot, |_| {
            outcome_json(&label, &outcome).render()
        });
        black_box(line);
        r.render_us.push(done.elapsed().as_secs_f64() * 1e6);
        if let Ok(out) = &outcome {
            r.by_cache[match out.cache.tag() {
                "hit" => 0,
                "warm" => 1,
                _ => 2,
            }]
            .push(secs * 1e3);
        }
        replies.push((slot, spec, outcome));
    }
    r.wall = start.elapsed();
    bad
}

/// Checks every reply of a round against the direct exploration of its
/// spec and returns how many failed. Kernel and digest jobs read their
/// frontier off the set-up reference, and that query's time goes to
/// `frontier_ms`.
fn check_replies(
    replies: &mut Vec<Reply>,
    targets: &[Target],
    t: &mut Tracer,
    frontier_ms: &mut Vec<f64>,
) -> u64 {
    let mut bad = 0;
    for (slot, spec, outcome) in replies.drain(..) {
        let pattern = matches!(spec.trace, TraceSource::Pattern(_));
        let f0 = Instant::now();
        let want = t.span("check", slot, |_| expected(&spec, targets));
        if !pattern {
            frontier_ms.push(f0.elapsed().as_secs_f64() * 1e3);
        }
        if !want.is_ok_and(|e| gate(&outcome, &e)) {
            bad += 1;
            eprintln!("job {:?} failed the correctness gate", spec.id);
        }
    }
    bad
}

/// Mean of a stage histogram's new samples, taking each log2 bucket
/// `[2^i, 2^(i+1))` µs at its midpoint.
fn hist_mean_ms(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let (mut n, mut sum) = (0u64, 0.0);
    for (i, (a, b)) in after.buckets.iter().zip(&before.buckets).enumerate() {
        let k = a - b;
        n += k;
        sum += k as f64 * 1.5 * (1u64 << i) as f64;
    }
    sum / n.max(1) as f64 / 1e3
}

fn setup_layers(m: &mut Metrics, tr: &Tracer, targets: &[Target]) {
    let sum_ms = |name: &str| -> f64 {
        tr.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    };
    m.set("workloads.capture_ms", sum_ms("workloads.capture"));
    m.set("trace.digest_ms", sum_ms("trace.digest"));
    m.set("core.dfs_ref_ms", sum_ms("core.dfs_ref"));
    m.set("trace.refs", targets.iter().map(|t| t.refs.0 as f64).sum());
    m.set(
        "trace.unique",
        targets.iter().map(|t| t.refs.1 as f64).sum(),
    );
}

/// How much of the best traced round the client's spans account for.
fn client_coverage(m: &mut Metrics, tr: &Tracer) {
    let spans = tr.spans();
    let own = self_times(spans);
    let Some((idx, round)) = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "round")
        .min_by_key(|(_, s)| s.duration_ns())
    else {
        return;
    };
    let mut by_layer: Vec<(&str, u64)> = Vec::new();
    for (s, &o) in spans.iter().zip(&own) {
        if s.parent == Some(idx) {
            match by_layer.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, v)) => *v += o,
                None => by_layer.push((s.name, o)),
            }
        }
    }
    let total = round.duration_ns().max(1);
    for (name, ns) in &by_layer {
        eprintln!(
            "layer {name:<16} {:>10.3} ms  {:>5.1} % of the best traced round",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total as f64
        );
    }
    let covered: u64 = by_layer.iter().map(|(_, v)| v).sum();
    m.set("layers.op_ms", total as f64 / 1e6);
    m.set("layers.coverage", covered as f64 / total as f64);
}

fn report_stats(s: &StatsSnapshot) {
    eprintln!("service stats: {}", s.to_json().render());
}
