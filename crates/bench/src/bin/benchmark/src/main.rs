//! The repository's benchmark: five workloads (`probe`, `plan`, `embed`,
//! `train`, `heal`), nine end-to-end metrics, and a traced run that
//! times every layer alone and reconciles the layers with the root.
//! `BENCHMARK.json` at the repository root declares all of it; README.md
//! in this directory explains every name.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--aa]
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only if every answer was verified.

mod declared;
mod fixture;
mod layers;
mod proc;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lc_eval::metrics::percentile;
use lc_nn::RuntimeConfig;

use declared::{check_names, Declared, MetricDecl};
use fixture::{Fixture, Scale};
use stats::Summary;
use trace::Tracer;
use workloads::{Ctx, Round, Workload};

/// End-to-end metrics: name and unit, as `BENCHMARK.json` declares them.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("qerr_p50", "ratio"),
    ("qerr_p95", "ratio"),
    ("rss_mb", "MiB"),
    ("model_bytes", "B"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: [(&str, &str); 63] = [
    ("serve.wire.decode_ns", "ns"),
    ("serve.wire.encode_ns", "ns"),
    ("serve.wire.feedback_decode_ns", "ns"),
    ("query.codec.key_ns", "ns"),
    ("serve.cache.hit_ns", "ns"),
    ("serve.cache.miss_ns", "ns"),
    ("serve.cache.hit_share", "share"),
    ("serve.batcher.batch_mean", "count"),
    ("serve.service.overhead_ns.b1", "ns"),
    ("serve.service.overhead_ns.b64", "ns"),
    ("serve.server.residual_ns", "ns"),
    ("serve.server.residual_share", "share"),
    ("serve.server.shard_cpu_us_per_op", "us"),
    ("serve.server.wakeups_per_op", "count"),
    ("query.annotate_ns", "ns"),
    ("core.featurize_ns.b1", "ns"),
    ("core.featurize_ns.b64", "ns"),
    ("core.featurize_ns.b256", "ns"),
    ("core.forward_ns.b1", "ns"),
    ("core.forward_ns.b64", "ns"),
    ("core.forward_ns.b256", "ns"),
    ("core.estimate_ns.b1", "ns"),
    ("core.estimate_ns.b256", "ns"),
    ("core.estimate_overhead_ns.b1", "ns"),
    ("core.quant.forward_ns.b1", "ns"),
    ("core.quant.forward_ns.b256", "ns"),
    ("core.quant.estimate_ns.b256", "ns"),
    ("core.quant.quantize_us", "us"),
    ("core.quant.resident_bytes", "B"),
    ("eval.quant.qerr_p50", "ratio"),
    ("eval.quant.qerr_p95", "ratio"),
    ("nn.matmul_ns.hidden", "ns"),
    ("nn.sparse_ns.pred", "ns"),
    ("nn.flops_per_est", "count"),
    ("nn.bytes_per_est", "B"),
    ("core.train.fit_ns", "ns"),
    ("core.train.assemble_ns", "ns"),
    ("core.train.forward_ns", "ns"),
    ("nn.loss_ns", "ns"),
    ("core.train.backward_ns", "ns"),
    ("nn.adam_ns", "ns"),
    ("core.train.step_residual_ns", "ns"),
    ("nn.pool.dispatch_ns", "ns"),
    ("core.train.t2_speedup", "ratio"),
    ("serve.drift.record_ns", "ns"),
    ("serve.registry.publish_us", "us"),
    ("serve.heal.retrains", "count"),
    ("serve.heal.first_publish_ms", "ms"),
    ("serve.heal.retrain_ms", "ms"),
    ("serve.heal.stale_answers", "count"),
    ("serve.heal.qerr_spike", "ratio"),
    ("engine.label_ns", "ns"),
    ("imdb.generate_ms", "ms"),
    ("eval.qerr_mean", "ratio"),
    ("eval.qerr_p90", "ratio"),
    ("eval.qerr_p99", "ratio"),
    ("eval.qerr_max", "ratio"),
    ("bench.op_p99_us", "us"),
    ("bench.client_cpu_us_per_op", "us"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead_share", "share"),
    ("bench.rounds", "count"),
    ("bench.round_spread", "share"),
];

/// Spans a traced run keeps (40 bytes each).
const SPAN_CAP: usize = 400_000;
/// Shares of `--seconds` a traced run gives to the alternating
/// untraced/traced rounds and to the layer replays.
const TRACE_ROUNDS_SHARE: f64 = 0.35;
const TRACE_REPLAY_SHARE: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: bool,
}

fn parse_args(declared: &Declared) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: declared.run_seconds,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            // `--trace`, `--trace 1` and `--trace 0` are all accepted.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload `{w}`; one of {:?}", workloads::NAMES));
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    Ok(args)
}

/// The first line of every run and of every trace file.
fn header(args: &Args, runtime: &RuntimeConfig) -> String {
    // The reactor shards pin themselves with this same call; whether
    // the kernel accepts the mask is probed on a scratch thread.
    let pinned = std::thread::spawn(|| lc_nn::pin_thread_to_core(0)).join().unwrap_or(false);
    format!(
        "{{\"benchmark\":\"lc-benchmark\",\"seed\":{},\"seconds\":{},\"trace\":{},\"quick\":{},\
         \"nproc\":{},\"cpu\":\"{}\",\"kernel\":\"{}\",\"runtime\":\"{:?}\",\"core_pinning\":{},\"client_core\":{CLIENT_CORE},\"lc_obs\":{}}}",
        args.seed,
        args.seconds,
        args.trace,
        args.quick,
        std::thread::available_parallelism().map_or(1, usize::from),
        proc::cpu_model().replace(['"', '\\'], " "),
        lc_nn::kernel_name(),
        runtime,
        pinned,
        lc_obs::enabled(),
    )
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Quartiles over rounds, for timing metrics.
    rounds: Option<Summary>,
    note: String,
}

/// What one workload run produced.
struct Report {
    workload: &'static str,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for m in &self.metrics {
            let rounds = m
                .rounds
                .map_or(String::new(), |s| format!("  (q1 {:.6} q3 {:.6} n {})", s.q1, s.q3, s.n));
            println!("{:<34} {:>16.6} {:<6}{rounds}{}", m.name, m.value, m.unit, m.note);
        }
    }

    /// `"name": {"value", "unit"}` for every metric, names prefixed.
    fn metrics_json(&self, prefix: &str) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN; a metric that could not be computed
                // reads 0, which no real measurement does.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{prefix}{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        metrics.join(", ")
    }
}

/// The contract's summary object, the last line of standard output.
fn summary_json(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// The core the client thread is pinned to: the reactor shard's own (a
/// shard pins itself to core `id`, and there is one shard). Client and
/// shard take turns in a closed loop, so sharing a core costs them no
/// parallelism worth having, and it spares every request two cross-core
/// wake-ups — on the 2-vCPU guest this was written on those cost
/// 15–20 µs each and moved by 20 % from run to run, where a shared core
/// gives a 15 µs round trip steady to 2 %. Left unpinned, the scheduler
/// switches between the two regimes within a run.
const CLIENT_CORE: usize = 0;

/// Run `body` on the one client thread: a thread of its own, pinned to
/// [`CLIENT_CORE`]. Set-up stays on the unpinned main thread, whose
/// helper threads would otherwise inherit the one-core mask.
fn on_client_thread<T: Send>(body: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("lc-client".into())
            .spawn_scoped(scope, || {
                lc_nn::pin_thread_to_core(CLIENT_CORE);
                body()
            })
            .expect("spawn the client thread")
            .join()
            .expect("the client thread panicked")
    })
}

/// Run rounds until `seconds` have passed and `min_rounds` are done.
fn run_rounds(
    workload: &mut dyn Workload,
    ctx: &mut Ctx<'_>,
    seconds: f64,
    min_rounds: usize,
) -> io::Result<Vec<Round>> {
    let mut rounds = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || rounds.len() < min_rounds {
        rounds.push(workload.round(ctx)?);
    }
    Ok(rounds)
}

fn oracle(workload: &str, violations: &[String], failed: u64) -> bool {
    for v in violations {
        println!("VIOLATION {workload}: {v}");
    }
    violations.is_empty() && failed == 0
}

/// The untraced run: every end-to-end metric.
fn run_untraced(name: &'static str, args: &Args, scale: Scale) -> io::Result<Report> {
    // Set-up runs `scale.setups` times; `setup_s` is the median. All
    // but the last fixture are dropped again.
    let mut setup_s = Vec::with_capacity(scale.setups);
    for _ in 1..scale.setups {
        let t = Instant::now();
        let fixture = Fixture::build(scale, args.seed);
        drop(workloads::build(name, &fixture, args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let fixture = Fixture::build(scale, args.seed);
    let mut workload = workloads::build(name, &fixture, args.seed)?;
    setup_s.push(t.elapsed().as_secs_f64());
    println!("inputs_fingerprint {:#018x}", workload.inputs_fingerprint());

    let rounds = on_client_thread(|| {
        let mut tracer = Tracer::new(0);
        let mut ctx = Ctx { tracer: &mut tracer, sample_threads: false };
        run_rounds(workload.as_mut(), &mut ctx, scale.warmup_s, 1)?;
        workload.warmed_up();
        run_rounds(workload.as_mut(), &mut ctx, args.seconds, scale.min_rounds)
    })?;
    let outcome = workload.finish();
    let one_sample = workload.one_sample_per_round();
    drop(workload);

    let of = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let ops_per_s = Summary::of(&of(Round::ops_per_s));
    let p50 = Summary::of(&of(|r| r.p50_us));
    let p90 = Summary::of(&of(|r| r.p90_us));
    let cpu = Summary::of(&of(Round::cpu_us_per_op));
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    let timing = |name, s: Summary, note: &str| Metric {
        name,
        value: s.median,
        unit: unit_of(name),
        rounds: Some(s),
        note: note.to_owned(),
    };
    let plain = |name, value| Metric {
        name,
        value,
        unit: unit_of(name),
        rounds: None,
        note: String::new(),
    };
    let metrics = vec![
        timing("setup_s", Summary::of(&setup_s), ""),
        timing("ops_per_s", ops_per_s, ""),
        timing("op_p50_us", p50, ""),
        if one_sample {
            // One latency sample a round: the slowest-quartile round
            // stands in for the p90.
            Metric {
                value: p50.q3,
                ..timing("op_p90_us", p50, "  slowest-quartile round, not a p90")
            }
        } else {
            timing("op_p90_us", p90, "")
        },
        timing("cpu_us_per_op", cpu, ""),
        plain("qerr_p50", stats::median(&outcome.qerrors)),
        plain("qerr_p95", stats::percentile_or_zero(&outcome.qerrors, 95.0)),
        plain("rss_mb", proc::peak_rss_mib()),
        plain("model_bytes", outcome.model_bytes as f64),
    ];
    let correct = oracle(name, &outcome.violations, failed);
    Ok(Report { workload: name, correct, attempted, failed, metrics })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("every printed metric is in the tables")
}

/// The traced run: every per-layer metric and the reconciliation line.
fn run_traced(name: &'static str, args: &Args, scale: Scale, header: &str) -> io::Result<Report> {
    let fixture = Fixture::build(scale, args.seed);
    let mut workload = workloads::build(name, &fixture, args.seed)?;
    println!("inputs_fingerprint {:#018x}", workload.inputs_fingerprint());

    let mut tracer = Tracer::new(SPAN_CAP);
    let (plain, traced) = on_client_thread(|| -> io::Result<_> {
        let mut ctx = Ctx { tracer: &mut tracer, sample_threads: true };
        run_rounds(workload.as_mut(), &mut ctx, scale.warmup_s, 1)?;
        workload.warmed_up();
        // Untraced and traced rounds alternate, so both see the same
        // host.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < TRACE_ROUNDS_SHARE * args.seconds
            || 2 * traced.len() < scale.min_rounds
        {
            ctx.tracer.set_recording(false);
            plain.push(workload.round(&mut ctx)?);
            ctx.tracer.set_recording(true);
            traced.push(workload.round(&mut ctx)?);
        }
        ctx.tracer.set_recording(false);
        Ok((plain, traced))
    })?;
    let outcome = workload.finish();
    let layer_times =
        layers::measure(&fixture, &workload.inputs(), TRACE_REPLAY_SHARE * args.seconds);
    let spans = trace::self_times(tracer.spans());
    let (reconciliation, root_unit) = workload.reconcile(&spans, &layer_times, &outcome.counted);
    drop(workload);

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, _) in PER_LAYER {
        values.insert(metric, layer_times.get(metric));
    }
    values.extend(outcome.counted.iter().copied());
    let all: Vec<&Round> = plain.iter().chain(&traced).collect();
    // Only a workload with a reactor shard has a server whose residual
    // this is.
    if all.iter().any(|r| r.shard.cpu_ns > 0) {
        values.insert("serve.server.residual_ns", reconciliation.residual_ns());
        values.insert("serve.server.residual_share", reconciliation.residual_share());
    }
    let ops: u64 = all.iter().map(|r| r.ops).sum();
    let per_op = |total: u64| total as f64 / ops.max(1) as f64;
    values.insert(
        "serve.server.shard_cpu_us_per_op",
        per_op(all.iter().map(|r| r.shard.cpu_ns).sum()) / 1e3,
    );
    values.insert(
        "serve.server.wakeups_per_op",
        per_op(all.iter().map(|r| r.shard.voluntary_switches).sum()),
    );
    values.insert(
        "bench.client_cpu_us_per_op",
        per_op(all.iter().map(|r| r.client_cpu_ns).sum()) / 1e3,
    );
    if !outcome.qerrors.is_empty() {
        let q = &outcome.qerrors;
        values.insert("eval.qerr_mean", q.iter().sum::<f64>() / q.len() as f64);
        values.insert("eval.qerr_p90", percentile(q, 90.0));
        values.insert("eval.qerr_p99", percentile(q, 99.0));
        values.insert("eval.qerr_max", q.iter().copied().fold(0.0, f64::max));
    }
    let rate =
        |rounds: &[Round]| Summary::of(&rounds.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    values.insert("bench.trace_overhead_share", 1.0 - traced_rate.median / plain_rate.median);
    values.insert("bench.rounds", all.len() as f64);
    values.insert("bench.round_spread", plain_rate.spread());
    let tail_percentile = plain[0].tail_percentile;
    values.insert(
        "bench.op_p99_us",
        stats::median(&plain.iter().map(|r| r.tail_us).collect::<Vec<_>>()),
    );

    let trace_path = PathBuf::from(format!("target/benchmark/trace-{name}.jsonl"));
    tracer.write_jsonl(&trace_path, header)?;
    println!("trace {} spans -> {}", tracer.spans().len(), trace_path.display());
    println!("{}", reconciliation.line(name, root_unit));
    let model_share = reconciliation.share_of(&["query.annotate", "core."]);
    println!(
        "reconcile {name}: model share (annotate + featurize + forward) {model_share:.3}, \
         stages explain {:.3} of the root",
        reconciliation.explained_ns() / reconciliation.root_ns
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(metric, unit)| Metric {
            name: metric,
            value: values[metric],
            unit,
            rounds: None,
            note: match metric {
                "bench.op_p99_us" => {
                    format!("  p{tail_percentile:.2} of a round, median of {} rounds", plain.len())
                }
                _ => String::new(),
            },
        })
        .collect();
    let attempted = all.iter().map(|r| r.attempted).sum();
    let failed = all.iter().map(|r| r.failed).sum();
    let correct = oracle(name, &outcome.violations, failed);
    Ok(Report { workload: name, correct, attempted, failed, metrics })
}

fn run(name: &'static str, args: &Args, header: &str) -> io::Result<Report> {
    let scale = if args.quick { Scale::quick() } else { Scale::full() };
    println!("== {name} ==");
    let report = if args.trace {
        run_traced(name, args, scale, header)?
    } else {
        run_untraced(name, args, scale)?
    };
    report.print();
    Ok(report)
}

/// `--aa`: the whole suite twice, workload order reversed the second
/// time, every run a process of its own (as the driver runs them: peak
/// memory and set-up time are per process); every end-to-end metric's
/// gap is printed next to its bound.
fn run_aa(args: &Args, declared: &Declared) -> io::Result<bool> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let exe = std::env::current_exe()?;
    let mut passes: Vec<BTreeMap<&str, declared::Json>> = Vec::new();
    let mut within = true;
    for pass in 0..2 {
        let mut order = workloads::NAMES.to_vec();
        if pass == 1 {
            order.reverse();
        }
        println!("# A/A pass {pass}: {order:?}");
        let mut summaries = BTreeMap::new();
        for workload in order {
            let mut child = std::process::Command::new(&exe);
            child.args(["--workload", workload, "--seed", &args.seed.to_string()]);
            child.args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            let output = child.output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let summary = stdout.lines().last().unwrap_or_default();
            println!("{workload}: {summary}");
            within &= output.status.success();
            summaries.insert(workload, declared::parse_json(summary).map_err(invalid)?);
        }
        passes.push(summaries);
    }
    println!("# A/A gaps: workload metric first second gap bound");
    for workload in workloads::NAMES {
        for MetricDecl { name, higher_is_better, bound, .. } in &declared.end_to_end {
            let value = |pass: usize| {
                passes[pass][workload]
                    .get("metrics")
                    .and_then(|m| m.get(name)?.get("value")?.as_f64())
                    .ok_or_else(|| invalid(format!("{workload}: no `{name}` in the summary")))
            };
            let (x, y) = (value(0)?, value(1)?);
            let gap = stats::worse_by(x, y, *higher_is_better).abs();
            let bound = bound.unwrap_or(0.0);
            let verdict = if gap <= bound { "ok" } else { "EXCEEDS" };
            within &= gap <= bound;
            println!(
                "{workload:<6} {name:<14} {x:>16.6} {y:>16.6} {gap:>8.4} {bound:>6.3} {verdict}"
            );
        }
    }
    Ok(within)
}

fn real_main() -> Result<bool, String> {
    let declared = Declared::load()?;
    check_names("workload", declared.workloads.iter().map(String::as_str), workloads::NAMES)?;
    fn names(decls: &[MetricDecl]) -> impl Iterator<Item = &str> {
        decls.iter().map(|m| m.name.as_str())
    }
    check_names("end-to-end metric", names(&declared.end_to_end), END_TO_END.map(|(n, _)| n))?;
    check_names("per-layer metric", names(&declared.per_layer), PER_LAYER.map(|(n, _)| n))?;
    for decl in declared.end_to_end.iter().chain(&declared.per_layer) {
        if decl.unit != unit_of(&decl.name) {
            return Err(format!(
                "unit of `{}`: BENCHMARK.json says {}, the program {}",
                decl.name,
                decl.unit,
                unit_of(&decl.name)
            ));
        }
    }
    let args = parse_args(&declared)?;
    // Explicit, so stray LC_* variables cannot change what is measured:
    // one thread for inference and training, default kernel and pinning.
    let runtime = RuntimeConfig::default().train_threads(1).infer_threads(1).install();
    let header = header(&args, runtime);
    println!("{header}");

    let io = |e: io::Error| format!("I/O error: {e}");
    if args.aa {
        return run_aa(&args, &declared).map_err(io);
    }
    match &args.workload {
        Some(w) => {
            let name = workloads::NAMES.iter().find(|n| *n == w).expect("validated");
            let report = run(name, &args, &header).map_err(io)?;
            println!(
                "{}",
                summary_json(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &report.metrics_json("")
                )
            );
            Ok(report.correct)
        }
        None => {
            let reports = workloads::NAMES
                .iter()
                .map(|&w| run(w, &args, &header))
                .collect::<io::Result<Vec<_>>>()
                .map_err(io)?;
            // One summary object over all five; metric names carry
            // their workload.
            let correct = reports.iter().all(|r| r.correct);
            let metrics: Vec<String> =
                reports.iter().map(|r| r.metrics_json(&format!("{}:", r.workload))).collect();
            println!(
                "{}",
                summary_json(
                    correct,
                    reports.iter().map(|r| r.attempted).sum(),
                    reports.iter().map(|r| r.failed).sum(),
                    &metrics.join(", ")
                )
            );
            Ok(correct)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, smoke-sized, traced and untraced: answers are
    /// verified, every declared metric is produced, and the whole thing
    /// stays quick enough for a debug build.
    #[test]
    fn every_workload_runs_quick_and_correct() {
        RuntimeConfig::default().train_threads(1).infer_threads(1).install();
        for trace in [true, false] {
            let args =
                Args { workload: None, seed: 5, seconds: 0.05, trace, quick: true, aa: false };
            for name in workloads::NAMES {
                let report = run(name, &args, "{}").expect("no I/O error");
                assert!(report.correct, "{name} trace={trace}");
                assert_eq!(report.failed, 0, "{name}");
                assert!(report.attempted >= 1);
                let expected = if trace { PER_LAYER.len() } else { END_TO_END.len() };
                assert_eq!(report.metrics.len(), expected);
                assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{name}");
                // CPU time comes in 10 ms ticks: a smoke run can read 0.
                let never_zero = |m: &&Metric| !trace && m.name != "cpu_us_per_op";
                assert!(
                    report.metrics.iter().filter(never_zero).all(|m| m.value > 0.0),
                    "{name}: a metric is 0"
                );
            }
        }
    }

    #[test]
    fn program_tables_match_the_declaration() {
        let declared = Declared::load().unwrap();
        assert_eq!(declared.end_to_end.len(), END_TO_END.len());
        assert_eq!(declared.per_layer.len(), PER_LAYER.len());
        for decl in declared.end_to_end.iter().chain(&declared.per_layer) {
            assert_eq!(decl.unit, unit_of(&decl.name), "{}", decl.name);
        }
    }
}
