//! `benchmark` — host-time benchmark of the kitten-hafnium simulator.
//!
//! The paper's claim is a fact about simulated time; this measures what
//! regenerating it costs on the host: wall time per workload pass,
//! set-up time, peak memory and simulated seconds per host second, next
//! to the exact simulated tails that every pass must reproduce bit for
//! bit. `--trace 1` instead reports per-layer counts and host time per
//! call (see `probes.rs`). Every pass is checked before anything prints.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     [--workload svcload|deep-adaptive|fleet-attest|machine-selfish] \
//!     [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke] [--out FILE]
//! ```
//!
//! One workload runs in this process. Without `--workload` every
//! workload runs in its own child process (a re-exec of this binary),
//! so each reports its own peak memory. `--repeat N` runs N rounds of
//! child invocations, rotating the workload order each round, and
//! prints each metric's median and quartiles. The last line of standard
//! output is always one JSON result object.

mod probes;
mod util;
mod workload;

use probes::{Counts, Traced};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use util::{fast_quartile, json_num, json_str, median, peak_rss_mb, quartiles, Json};
use workload::{check, digest, run_pass, run_setup, summarize, Spans, Spec, Tails, Workload};

const USAGE: &str =
    "usage: benchmark [--workload svcload|deep-adaptive|fleet-attest|machine-selfish] \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--smoke] [--out FILE]";
const DEFAULT_SEED: u64 = 23585;
/// Measured window per workload when `--seconds` is not given: all four
/// workloads then finish in under a minute.
const DEFAULT_SECONDS: f64 = 5.0;
/// Host time spent on zero-traffic set-up twins, as a share of the
/// timed passes' time, and the fewest twins a run takes: `setup_s` is
/// their median.
const SETUP_SHARE: f64 = 0.1;
const MIN_TWINS: usize = 5;
/// Timed passes per run, however short the window.
const MIN_PASSES: usize = 3;
/// `--smoke` divides every simulated duration by this.
const SMOKE_DIVISOR: f64 = 50.0;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed after the unit on the text line (sample counts).
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }
}

/// Metrics in emission order, plus the quantiles refused for thin
/// tails.
#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
    pub refused: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, m: Metric) {
        self.list.push(m);
    }

    /// A tail quantile in µs with its sample count. `None` tails mean
    /// the workload has no such sample set and report 0; a refused
    /// quantile is left out and named in `refused`.
    pub fn quantile(
        &mut self,
        name: &str,
        tails: Option<&Tails>,
        pick: fn(&Tails) -> Option<(&'static str, util::RankQuantile)>,
    ) {
        match tails {
            None => self.push(Metric::new(name, 0.0, "us")),
            Some(t) => match pick(t) {
                Some((rank, q)) => self.push(Metric {
                    note: format!("{rank} n={} beyond={}", t.samples, q.beyond),
                    ..Metric::new(name, q.value as f64 / 1e3, "us")
                }),
                None => self.refused.push(format!("{name} n={}", t.samples)),
            },
        }
    }
}

/// What one workload invocation measured.
#[derive(Debug)]
pub struct Measurement {
    /// Timed passes run (all checked).
    pub passes: u64,
    pub metrics: Metrics,
    pub digest: u64,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
                a.repeat = Some(n);
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Measure one workload in this process.
pub fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Measurement, String> {
    let scale = if smoke { 1.0 / SMOKE_DIVISOR } else { 1.0 };
    let spec = Spec {
        workload: w,
        seed,
        scale,
    };
    // Warm-up: fault in the allocator's arenas and the code before
    // anything is timed.
    let warm = Spec {
        scale: scale / 10.0,
        ..spec
    };
    check(&run_pass(&warm, None).0)?;
    let window = Duration::from_secs_f64(seconds);
    if trace {
        measure_traced(&spec, window)
    } else {
        measure_untraced(&spec, window)
    }
}

/// The time of one pass, from the host times of each of its runs (one
/// `cluster::run`, or one stack's machine), pass after pass: the sum of
/// each run's fast-quartile time. The shorter the timed unit, the
/// likelier some of its repeats miss a busy neighbour entirely.
fn pass_wall(passes: &[Vec<f64>]) -> f64 {
    (0..passes[0].len())
        .map(|k| fast_quartile(&passes.iter().map(|p| p[k]).collect::<Vec<_>>()))
        .sum()
}

fn measure_untraced(spec: &Spec, window: Duration) -> Result<Measurement, String> {
    let start = Instant::now();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut setups = Vec::new();
    let (mut pass_time, mut twin_time) = (0.0, 0.0);
    let mut sim = None;
    let mut peak = 0.0;
    while passes.len() < MIN_PASSES || start.elapsed() < window {
        let (reports, times) = run_pass(spec, None);
        pass_time += times.iter().sum::<f64>();
        passes.push(times);
        check(&reports)?;
        // Results come from the first pass; the second must replay it
        // bit for bit.
        match &sim {
            None => {
                sim = Some(summarize(spec, &reports)?);
                // Peak memory of the warm-up and one pass, read before
                // the timing vectors grow with the window: later passes
                // repeat this one.
                peak = peak_rss_mb();
            }
            Some(s) if passes.len() == 2 && digest(&reports) != s.digest => {
                return Err("second pass differs from the first".to_string());
            }
            Some(_) => {}
        }
        drop(reports);
        // Zero-traffic twins interleave with the passes and take about
        // a tenth of their host time, so set-up is timed under the same
        // host conditions across the whole window.
        while twin_time < SETUP_SHARE * pass_time {
            setups.push(run_setup(spec).as_secs_f64());
            twin_time += setups.last().expect("just pushed");
        }
    }
    while setups.len() < MIN_TWINS {
        setups.push(run_setup(spec).as_secs_f64());
    }
    let sim = sim.expect("at least one pass ran");
    let wall = pass_wall(&passes);
    let mut m = Metrics::default();
    m.push(Metric {
        note: format!("passes={}", passes.len()),
        ..Metric::new("wall_s", wall, "s")
    });
    m.push(Metric {
        note: format!("twins={}", setups.len()),
        ..Metric::new("setup_s", median(&setups), "s")
    });
    m.push(Metric::new("sim_speed", sim.sim_seconds / wall, "s/s"));
    m.push(Metric::new("peak_rss_mb", peak, "MB"));
    m.quantile("sim_p50_us", Some(&sim.tails), |t| {
        t.p50.map(|q| ("p50", q))
    });
    m.quantile("sim_p99_us", Some(&sim.tails), |t| {
        t.p99.map(|q| ("p99", q))
    });
    Ok(Measurement {
        passes: passes.len() as u64,
        metrics: m,
        digest: sim.digest,
    })
}

fn measure_traced(spec: &Spec, window: Duration) -> Result<Measurement, String> {
    // Bytes a pass retains per request: the process peak after its
    // first pass above the peak after its zero-traffic twin (the
    // warm-up before both is a tenth of a pass).
    run_setup(spec);
    let twin_peak = peak_rss_mb();
    let (reports, times) = run_pass(spec, None);
    // Host time of each run, pass after pass.
    let mut untraced = vec![times];
    let pass_peak = peak_rss_mb();
    check(&reports)?;
    let sim = summarize(spec, &reports)?;
    let counts = Counts::of(&reports);
    let csv = match &reports {
        workload::Reports::Cluster(rs) => {
            let t0 = Instant::now();
            for r in rs {
                std::hint::black_box(r.csv());
            }
            t0.elapsed()
        }
        workload::Reports::Machine(_) => Duration::ZERO,
    };
    drop(reports);

    // Traced and untraced passes alternate, so drift hits both alike.
    let start = Instant::now();
    let mut traced = Vec::new();
    let mut spans = Vec::new();
    while traced.len() < MIN_PASSES || start.elapsed() < window {
        let mut s = Spans::default();
        let (r, times) = run_pass(spec, Some(&mut s));
        traced.push(times);
        spans.push(s);
        check(&r)?;
        drop(r);
        let (r, times) = run_pass(spec, None);
        untraced.push(times);
        check(&r)?;
    }
    let fast = |f: fn(&Spans) -> Duration| {
        Duration::from_secs_f64(fast_quartile(
            &spans.iter().map(|s| f(s).as_secs_f64()).collect::<Vec<_>>(),
        ))
    };
    let t = Traced {
        wall_s: pass_wall(&untraced),
        traced_wall_s: fast_quartile(&traced.iter().map(|p| p.iter().sum()).collect::<Vec<_>>()),
        // Traced pass i ran between untraced passes i and i + 1; each
        // of its runs is compared with the mean of the same run in both
        // neighbours, which cancels a steady drift of the host.
        overhead: median(
            &traced
                .iter()
                .zip(untraced.windows(2))
                .flat_map(|(t, u)| (0..t.len()).map(move |k| 2.0 * t[k] / (u[0][k] + u[1][k])))
                .collect::<Vec<_>>(),
        ) - 1.0,
        spans: Spans {
            cluster_run: fast(|s| s.cluster_run),
            machine_boot: fast(|s| s.machine_boot),
            machine_run: fast(|s| s.machine_run),
        },
        csv,
        rss_above_twin: (pass_peak - twin_peak).max(0.0) * 1e6,
    };
    Ok(Measurement {
        passes: (traced.len() + untraced.len()) as u64,
        metrics: probes::per_layer(spec, &counts, &sim, &t),
        digest: sim.digest,
    })
}

/// The result object: the last line of standard output.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Print the last line and mirror it to `--out`.
fn finish(args: &Args, line: String, ok: bool) -> ExitCode {
    println!("{line}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args, w: Workload) -> ExitCode {
    match measure(w, args.seed, args.seconds, args.trace, args.smoke) {
        Ok(m) => {
            for x in &m.metrics.list {
                println!("{} {} {} {} {}", w.name(), x.name, x.value, x.unit, x.note);
            }
            for r in &m.metrics.refused {
                println!("{} {r} refused: fewer than 10 samples beyond", w.name());
            }
            println!("{} sim_digest {:#018x}", w.name(), m.digest);
            // Outside smoke scale every declared quantile must print.
            let ok = args.smoke || m.metrics.refused.is_empty();
            if !ok {
                eprintln!(
                    "benchmark: {}: tails too thin for a declared quantile",
                    w.name()
                );
            }
            let list: Vec<(String, f64, String)> = m
                .metrics
                .list
                .iter()
                .map(|x| (x.name.clone(), x.value, x.unit.to_string()))
                .collect();
            finish(args, result_json(ok, m.passes, u64::from(!ok), &list), ok)
        }
        Err(e) => {
            eprintln!("benchmark: {}: check failed: {e}", w.name());
            finish(args, result_json(false, 1, 1, &[]), false)
        }
    }
}

/// Run one workload in a child process; its text lines and parsed
/// result object.
fn child(args: &Args, w: Workload) -> Result<(Vec<String>, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let last = lines.pop().unwrap_or_default();
    let json = Json::parse(&last).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    Ok((lines, json))
}

/// `(name, value, unit)` of every metric in a result object.
fn metrics_of(json: &Json) -> Vec<(String, f64, String)> {
    match json.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| {
                Some((
                    k.clone(),
                    v.get("value")?.as_f64()?,
                    v.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut all = Vec::new();
    for w in Workload::ALL {
        match child(args, w) {
            Ok((lines, json)) => {
                for l in lines {
                    println!("{l}");
                }
                ok &= json.get("correct") == Some(&Json::Bool(true));
                attempted += json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                failed += json.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                for (name, v, unit) in metrics_of(&json) {
                    all.push((format!("{}.{name}", w.name()), v, unit));
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ok = false;
                failed += 1;
            }
        }
    }
    finish(args, result_json(ok, attempted.max(1), failed, &all), ok)
}

/// `--repeat N`: N rounds of child invocations, the workload order
/// rotated every round so slow drift spreads over all workloads; then
/// median and quartiles per metric, and whether every run of a
/// workload printed the same simulation digest.
fn run_repeat(args: &Args, rounds: usize) -> ExitCode {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut samples: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut digests: Vec<(Workload, Vec<String>)> =
        workloads.iter().map(|&w| (w, vec![])).collect();
    let mut attempted = 0u64;
    for round in 0..rounds {
        for i in 0..workloads.len() {
            let w = workloads[(i + round) % workloads.len()];
            let (lines, json) = match child(args, w) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("benchmark: round {round}: {e}");
                    return finish(args, result_json(false, attempted.max(1), 1, &[]), false);
                }
            };
            attempted += json.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let tag = format!("{} sim_digest ", w.name());
            let d = lines
                .iter()
                .find_map(|l| l.strip_prefix(&tag))
                .unwrap_or("?");
            let slot = digests.iter_mut().find(|(x, _)| *x == w).expect("listed");
            slot.1.push(d.to_string());
            for (name, v, unit) in metrics_of(&json) {
                let key = format!("{}.{name}", w.name());
                match samples.iter_mut().find(|(k, ..)| *k == key) {
                    Some(s) => s.2.push(v),
                    None => samples.push((key, unit, vec![v])),
                }
            }
        }
    }
    println!("# metric median q1 q3 iqr/median unit (runs={rounds})");
    let mut medians = Vec::new();
    for (key, unit, vs) in &samples {
        let med = median(vs);
        let (q1, q3) = quartiles(vs);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        println!("{key} {med} {q1} {q3} {spread:.4} {unit}");
        medians.push((key.clone(), med, unit.clone()));
    }
    let mut identical = true;
    for (w, ds) in &digests {
        let same = ds.windows(2).all(|p| p[0] == p[1]);
        identical &= same;
        println!(
            "{} sim_digest {} across {} runs",
            w.name(),
            if same { "identical" } else { "DIFFERS" },
            ds.len()
        );
    }
    finish(
        args,
        result_json(identical, attempted.max(1), u64::from(!identical), &medians),
        identical,
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One process, one simulator thread: the benchmark measures the
    // program, not the host's scheduler.
    kh_core::pool::set_jobs(1);
    match (args.repeat, args.workload) {
        (Some(n), _) => run_repeat(&args, n),
        (None, Some(w)) => run_one(&args, w),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(
            names,
            Workload::ALL.map(Workload::name),
            "declared workloads"
        );
        spec.get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let want = declared(section);
            for w in Workload::ALL {
                let m = measure(w, DEFAULT_SEED, 0.0, trace, true)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                for (name, unit) in &want {
                    match m.metrics.list.iter().find(|x| &x.name == name) {
                        Some(x) => {
                            assert!(x.value.is_finite(), "{} {name} = {}", w.name(), x.value);
                            assert_eq!(x.unit, unit, "{} {name} unit", w.name());
                        }
                        // Smoke scale may leave a tail too thin to
                        // print; it must then be refused by name.
                        None => assert!(
                            m.metrics
                                .refused
                                .iter()
                                .any(|r| r.starts_with(&format!("{name} "))),
                            "{} {section} metric {name} neither emitted nor refused",
                            w.name()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn smoke_runs_print_identical_digests() {
        for w in Workload::ALL {
            let spec = Spec {
                workload: w,
                seed: DEFAULT_SEED,
                scale: 1.0 / SMOKE_DIVISOR,
            };
            let a = digest(&run_pass(&spec, None).0);
            let b = digest(&run_pass(&spec, None).0);
            assert_eq!(a, b, "{} replays", w.name());
            let other = digest(&run_pass(&Spec { seed: 1, ..spec }, None).0);
            assert_ne!(a, other, "{} depends on its seed", w.name());
        }
    }
}
