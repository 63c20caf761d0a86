//! Self-tests of the benchmark: the metrics it emits are the ones
//! `BENCHMARK.json` declares, its correctness gates reject tampered output,
//! and its inputs depend on the seed and on nothing else.

use cachedse_core::{Exploration, MissBudget};
use cachedse_e2ebench::metrics::{Outcome, END_TO_END, PER_LAYER};
use cachedse_e2ebench::spans::Tracer;
use cachedse_e2ebench::{explore, serve};
use cachedse_json::Value;
use cachedse_serve::{JobSpec, TraceSide};
use cachedse_sim::onepass::DepthProfile;

// The runs under test read peak heap from the counting allocator, as the
// benchmark binary does.
#[global_allocator]
static ALLOC: cachedse_bench::alloc_track::CountingAlloc =
    cachedse_bench::alloc_track::CountingAlloc;

/// Small kernels, so the tests run quickly in a debug build.
const SMALL: [&str; 2] = ["crc", "bcnt"];

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let json = Value::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(outcome: &Outcome, table: &[(&'static str, &'static str)]) -> Vec<(String, String)> {
    let line = Value::parse(&outcome.result_line(table)).expect("result line parses");
    line.get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, v)| {
            let unit = v.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn small_explore(side: TraceSide, trace: bool) -> explore::Config {
    explore::Config {
        side,
        seed: 5,
        seconds: 0.0,
        trace,
        kernels: SMALL.to_vec(),
        variants: 2,
        setups: 1,
        min_rounds: 2,
    }
}

fn small_serve(trace: bool) -> serve::Config {
    serve::Config {
        kernels: SMALL.to_vec(),
        // A second set-up, timed between the two rounds.
        setups: 2,
        min_rounds: 2,
        round_jobs: 40,
        ..serve::Config::full(5, 0.0, trace)
    }
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    std::fs::create_dir_all(cachedse_e2ebench::out_dir()).unwrap();
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for trace in [false, true] {
        let runs = [
            explore::run(&small_explore(TraceSide::Data, trace)).unwrap(),
            explore::run(&small_explore(TraceSide::Instr, trace)).unwrap(),
            serve::run(&small_serve(trace)).unwrap(),
        ];
        for outcome in &runs {
            assert_eq!(outcome.failed, 0, "the gate passes unmodified code");
            if trace {
                assert_eq!(emitted(outcome, &PER_LAYER), layers);
            } else {
                assert_eq!(emitted(outcome, &END_TO_END), e2e);
                // Every end-to-end metric is measured on every workload,
                // never filled in.
                let set = outcome.metrics.names();
                for (name, _) in &END_TO_END {
                    assert!(set.contains(name), "{name} not measured");
                    assert!(outcome.metrics.get(name).unwrap() > 0.0, "{name} is 0");
                }
            }
        }
    }
}

#[test]
fn explore_gate_rejects_a_tampered_profile() {
    let mut off = Tracer::new(false);
    let inputs = explore::capture(&["crc"], TraceSide::Data, 3, &mut off).unwrap();
    let reference = explore::reference(&inputs[0], &mut off, 0).unwrap();
    assert!(reference.simulator_agrees);
    let mut sweep = explore::sweep(&inputs[0].din, &mut off, 0).unwrap();
    assert!(explore::gate(&reference, &sweep));

    // Move one reuse out of the depth-1 histogram's first bin into the next:
    // the totals stay the same, only byte identity can tell.
    let e = &sweep.exploration;
    let mut profiles: Vec<DepthProfile> = e.profiles().to_vec();
    let p = &profiles[0];
    let mut hist = p.histogram().to_vec();
    let bin = hist.iter().position(|&c| c > 0).expect("a non-empty bin");
    hist[bin] -= 1;
    if hist.len() == bin + 1 {
        hist.push(0);
    }
    hist[bin + 1] += 1;
    profiles[0] = DepthProfile::from_parts(p.depth(), hist, p.cold(), p.accesses());
    sweep.exploration = Exploration::from_parts(profiles, e.stats(), e.engine()).unwrap();
    assert!(!explore::gate(&reference, &sweep));
}

#[test]
fn serve_gate_rejects_a_wrong_frontier() {
    let mut off = Tracer::new(false);
    let targets = serve::targets(&["crc"], 3, &mut off).unwrap();
    // A kernel job: a fresh service has no artifacts for a digest job.
    let line = (0..)
        .map(|slot| serve::job_line(3, 0, slot, &targets))
        .find(|l| l.contains("\"workload\""))
        .unwrap();
    let spec = JobSpec::parse(&line).unwrap();
    let want = serve::expected(&spec, &targets).unwrap();
    let other = targets[0]
        .reference
        .result(MissBudget::Absolute(want.budget() + 1_000_000))
        .unwrap();
    assert_ne!(other, want);
    let service = cachedse_serve::Service::start(cachedse_serve::ServiceConfig::default());
    let (_, outcome) = service.wait(service.submit(spec).unwrap());
    assert!(serve::gate(&outcome, &want));
    let mut tampered = outcome.clone();
    if let Ok(out) = &mut tampered {
        out.result = other;
    }
    assert!(!serve::gate(&tampered, &want));
    drop(service.shutdown());
}

#[test]
fn same_seed_gives_same_traces_and_job_stream() {
    let din = |side, seed| -> Vec<Vec<u8>> {
        explore::capture(&SMALL, side, seed, &mut Tracer::new(false))
            .unwrap()
            .into_iter()
            .map(|i| i.din)
            .collect()
    };
    assert_eq!(din(TraceSide::Data, 7), din(TraceSide::Data, 7));
    assert_ne!(din(TraceSide::Data, 7), din(TraceSide::Data, 8));
    // Instruction traces follow control flow, which the inputs barely move.
    for (a, b) in din(TraceSide::Instr, 7)
        .iter()
        .zip(&din(TraceSide::Instr, 8))
    {
        let (a, b) = (a.len() as f64, b.len() as f64);
        assert!(
            (a - b).abs() / a < 0.05,
            "instruction trace length moved {a} -> {b}"
        );
    }

    let stream = |seed| -> Vec<String> {
        let targets = serve::targets(&SMALL, seed, &mut Tracer::new(false)).unwrap();
        (0..50)
            .map(|slot| serve::job_line(seed, 1, slot, &targets))
            .collect()
    };
    let first = stream(7);
    assert_eq!(first, stream(7));
    assert_ne!(first, stream(8));
    let kinds = |prefix: &str| first.iter().filter(|l| l.contains(prefix)).count();
    assert!(kinds("\"pattern\"") > 0 && kinds("\"digest\"") > 0 && kinds("\"workload\"") > 0);
}
