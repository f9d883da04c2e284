//! The end-to-end pay-as-you-go benchmark of the VADA reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path paygo_bench/Cargo.toml -- \
//!     --workload <paygo_session|source_edits|feedback_rounds> --seed <n> \
//!     --seconds <s> --trace <0|1> \
//!     [--scenario-seed <n>] [--oracle-seed <n>] [--edit-seed <n>] [--record]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones; the last line of standard output is one JSON object.
//! `--record` prints the check values of the given seeds as an
//! `expected.tsv` line instead of measuring. See `README.md`.

mod calib;
mod harness;
mod probe;
mod replay;
mod rng;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use harness::{Harness, Knobs};
use workloads::{Expected, Quality, Seeds};

/// The default fleet's transducers, in the order the per-layer metrics
/// list them.
const TRANSDUCERS: [&str; 14] = [
    "csv_ingestion",
    "feedback_repair",
    "mapping_evaluation",
    "schema_matching",
    "instance_matching",
    "mapping_generation",
    "cfd_learning",
    "source_profiling",
    "mapping_quality",
    "mapping_selection",
    "mapping_execution",
    "result_repair",
    "duplicate_detection",
    "data_fusion",
];

/// Check values recorded per `(scenario seed, oracle seed)`.
const EXPECTED: &str = include_str!("../expected.tsv");

struct Args {
    workload: String,
    seconds: u64,
    trace: bool,
    seeds: Seeds,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut record = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--record" => record = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--scenario-seed"
            | "--oracle-seed" | "--edit-seed" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                named.insert(flag[2..].to_string(), value);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let number = |key: &str, default: u64| -> Result<u64, String> {
        named.get(key).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad --{key} `{v}`"))
        })
    };
    let seed = number("seed", 1)?;
    let seeds = Seeds {
        scenario: number("scenario-seed", workloads::DEFAULT_SCENARIO_SEED)?,
        oracle: number("oracle-seed", seed)?,
        edit: number("edit-seed", seed)?,
    };
    let workload = named.get("workload").cloned().unwrap_or_default();
    if !record && !["paygo_session", "source_edits", "feedback_rounds"].contains(&workload.as_str())
    {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = number("seconds", 10)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match number("trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seconds,
        trace,
        seeds,
        record,
    })
}

/// Remove every ambient `VADA_*` variable, so no environment can change
/// what is measured (`VADA_MAGIC` and `VADA_OBS` have no `Wrangler`
/// setter). Runs before any thread exists.
fn clear_ambient_knobs() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("VADA_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn lookup_expected(seeds: &Seeds) -> Expected {
    let mut expected = Expected::default();
    for line in EXPECTED.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let number = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok());
        let quality = |i: usize| {
            Some(Quality {
                rows: f.get(i)?.parse().ok()?,
                f1: f.get(i + 1)?.parse().ok()?,
            })
        };
        if number(0) == Some(seeds.scenario) {
            expected.session = expected.session.or(quality(2));
            if number(1) == Some(seeds.oracle) {
                expected.rounds = quality(4);
            }
        }
    }
    expected
}

fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// `part` over `whole`, or 0 when `whole` is 0.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn end_to_end(h: &Harness) -> Vec<Metric> {
    vec![
        metric("setup_s", percentile(&h.setup_s, 0.5), "s"),
        metric("op_ref_p50", percentile(&h.op_ref, 0.5), "ref"),
        metric("first_result_ref_p50", percentile(&h.first_ref, 0.5), "ref"),
        metric("result_f1", h.f1.unwrap_or(0.0), "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn per_layer(h: &mut Harness) -> Vec<Metric> {
    let l = &h.layers;
    let ops = l.ops.max(1) as f64;
    let counter = |name: &str| l.counters.get(name).copied().unwrap_or(0) as f64;
    let per_op = |name: &str| counter(name) / ops;
    let replay = |name: &str| l.replay.get(name).copied().unwrap_or(0.0);
    let (runs, readies) = (h.probe.runs(), h.probe.readies());
    let transducer_ms: f64 = runs.values().map(|t| t.ms).sum();
    let transducer_runs: u64 = runs.values().map(|t| t.calls).sum();
    let ready_ms: f64 = readies.values().map(|t| t.ms).sum();
    let ready_calls: u64 = readies.values().map(|t| t.calls).sum();
    let in_place = counter("incremental.outcome.incremental");
    let outcomes = in_place
        + counter("incremental.outcome.bootstrap")
        + counter("incremental.outcome.full_fallback");
    let traced = percentile(&h.traced_op_ms, 0.5);
    let plain = percentile(&h.op_ms, 0.5);

    let mut m = vec![
        metric("core.run_ms", l.run_ms / ops, "ms/op"),
        metric("core.steps", l.steps as f64 / ops, "count/op"),
        metric(
            "core.self_ms",
            (l.run_ms - transducer_ms - ready_ms) / ops,
            "ms/op",
        ),
    ];
    for name in TRANSDUCERS {
        let t = runs.get(name).copied().unwrap_or_default();
        m.push(metric(format!("transducer.{name}.ms"), t.ms / ops, "ms/op"));
        m.push(metric(
            format!("transducer.{name}.runs"),
            t.calls as f64 / ops,
            "count/op",
        ));
    }
    m.extend([
        metric("kb.ready_ms", ready_ms / ops, "ms/op"),
        metric("kb.ready_calls", ready_calls as f64 / ops, "count/op"),
        metric("kb.write_ms", l.write_ms / ops, "ms/op"),
        metric(
            "kb.journal_events",
            l.journal_events as f64 / ops,
            "count/op",
        ),
        metric(
            "kb.depcache_rebuilds",
            per_op("kb.depcache.rebuilds"),
            "count/op",
        ),
        metric(
            "kb.depcache_patches",
            per_op("kb.depcache.patches"),
            "count/op",
        ),
        metric("map.execute_ms", replay("map.execute_ms"), "ms"),
        metric("map.candidates", replay("map.candidates"), "count"),
        metric("map.incremental_ms", replay("map.incremental_ms"), "ms"),
        metric("datalog.run_ms", replay("datalog.run_ms"), "ms"),
        metric("datalog.facts", replay("datalog.facts"), "count"),
        metric(
            "datalog.stratum.passes",
            per_op("datalog.stratum.passes"),
            "count/op",
        ),
        metric(
            "datalog.index.builds",
            per_op("datalog.index.builds"),
            "count/op",
        ),
        metric(
            "datalog.index.probes",
            per_op("datalog.index.probes"),
            "count/op",
        ),
        metric(
            "incremental.in_place_ratio",
            ratio(in_place, outcomes),
            "ratio",
        ),
        metric(
            "obs.overhead_pct",
            100.0 * ratio(traced - plain, plain),
            "%",
        ),
    ]);

    // the decorator must have seen every step the orchestrator reported
    let steps = l.steps;
    h.check(steps == transducer_runs, || {
        format!("probe saw {transducer_runs} transducer runs, orchestrator {steps}")
    });
    let unknown: Vec<&String> = runs
        .keys()
        .filter(|n| !TRANSDUCERS.contains(&n.as_str()))
        .collect();
    h.check(unknown.is_empty(), || {
        format!("transducers outside the metric list: {unknown:?}")
    });
    m
}

/// The per-layer split as a table, self time included.
fn layer_table(h: &Harness) -> String {
    let ops = h.layers.ops.max(1) as f64;
    let run_ms = h.layers.run_ms;
    let share = |ms: f64| 100.0 * ratio(ms, run_ms);
    let mut out = format!(
        "{:<44} {:>10} {:>9} {:>7}\n",
        "layer / call", "ms/op", "calls/op", "% run"
    );
    let mut row = |name: &str, ms: f64, calls: f64| {
        out.push_str(&format!(
            "{name:<44} {:>10.3} {:>9.2} {:>7.1}\n",
            ms / ops,
            calls / ops,
            share(ms)
        ));
    };
    let (runs, readies) = (h.probe.runs(), h.probe.readies());
    let children: f64 = runs.values().chain(readies.values()).map(|t| t.ms).sum();
    row("vada-core Wrangler::run", run_ms, h.layers.steps as f64);
    row("  vada-core self", run_ms - children, 0.0);
    for (name, t) in &readies {
        row(&format!("  vada-kb ready ({name})"), t.ms, t.calls as f64);
    }
    for (name, t) in &runs {
        row(&format!("  transducer {name}"), t.ms, t.calls as f64);
    }
    row("vada-kb writes (outside run)", h.layers.write_ms, 0.0);
    out.push_str(&format!(
        "attributed to kb ready + transducer run: {:.1}% of Wrangler::run (core self {:.1}%)\n",
        share(children),
        share(run_ms - children)
    ));
    out
}

fn json(h: &Harness, correct: bool, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        h.attempted.max(1),
        h.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let cleared = clear_ambient_knobs();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paygo_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let seeds = args.seeds;
    if args.record {
        return match workloads::record(&seeds) {
            Ok(Expected {
                session: Some(s),
                rounds: Some(r),
            }) => {
                println!(
                    "{}\t{}\t{}\t{:?}\t{}\t{:?}",
                    seeds.scenario, seeds.oracle, s.rows, s.f1, r.rows, r.f1
                );
                ExitCode::SUCCESS
            }
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("paygo_bench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let knobs = match args.workload.as_str() {
        "source_edits" => workloads::EDIT_KNOBS,
        _ => Knobs::DEFAULT,
    };
    println!("workload: {} (one client, closed loop)", args.workload);
    println!(
        "seeds: scenario={} oracle={} edit={}",
        seeds.scenario, seeds.oracle, seeds.edit
    );
    println!("knobs: {}", knobs.describe());
    println!("ambient VADA_* variables cleared: {cleared:?}");
    println!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let expected = lookup_expected(&seeds);
    let recorded = match args.workload.as_str() {
        "paygo_session" => expected.session.is_some(),
        "feedback_rounds" => expected.rounds.is_some(),
        _ => true,
    };
    if !recorded {
        println!("no recorded check values for these seeds: checking run-to-run agreement only");
    }

    let mut h = Harness::new(args.trace, args.seconds);
    let outcome = match args.workload.as_str() {
        "paygo_session" => workloads::paygo_session(&mut h, &seeds, expected),
        "source_edits" => workloads::source_edits(&mut h, &seeds),
        _ => workloads::feedback_rounds(&mut h, &seeds, expected),
    };
    if let Err(e) = outcome {
        h.fail(format!("workload aborted: {e}"));
    }
    h.end_cycle();

    let metrics = if args.trace {
        per_layer(&mut h)
    } else {
        end_to_end(&h)
    };
    let ops = h.op_ms.len();
    println!(
        "ops measured: {ops} (+{} traced), set-ups: {}",
        h.traced_op_ms.len(),
        h.setup_s.len()
    );
    let setups: Vec<String> = h.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up times: {} s", setups.join(" "));
    println!("failed_ops: {} / {} attempted", h.failed, h.attempted);
    let q = |p: f64| percentile(&h.op_ms, p);
    println!(
        "op_ms quartiles: {:.3} / {:.3} / {:.3} ms, max {:.3} ms",
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );
    println!(
        "first_result_ms_p50: {:.3} ms",
        percentile(&h.first_ms, 0.5)
    );
    let cycles: Vec<String> = h.op_ref.iter().map(|r| format!("{r:.4}")).collect();
    println!("op_ref per cycle: {}", cycles.join(" "));
    let k = |p: f64| percentile(&h.kernel_ms, p);
    println!(
        "reference kernel quartiles: {:.3} / {:.3} / {:.3} ms over {} calls",
        k(0.25),
        k(0.5),
        k(0.75),
        h.kernel_ms.len()
    );
    if ops >= 100 {
        // the highest percentile with at least ten samples beyond it
        println!("op_ms_p90: {:.3} ms", q(0.9));
    }
    if args.trace {
        print!("{}", layer_table(&h));
    }
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    let correct = h.failed == 0 && h.attempted > 0;
    println!("{}", json(&h, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
