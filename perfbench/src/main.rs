//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --skild PATH [--out DIR]
//! perfbench record-reference > perfbench/reference.json
//! ```
//!
//! `--trace 0` drives the real `skild` and reports the end-to-end
//! metrics; `--trace 1` adds the in-process traced run and reports the
//! per-layer metrics. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! records the host, the toolchain, sample counts and other detail.
//! `perfbench/run.py` builds everything and calls this.

mod skild;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use perfbench::check::{Outcome, Reference};
use perfbench::stats::{median, percentile, quiet_quarter, rate, Pct};
use perfbench::workload::{source, workload, Expect, WORKLOADS};
use skil_lang::{compile, Engine};
use skil_runtime::{Machine, MachineConfig};
use skil_serve::json::{obj, Json};

use skild::Gate;

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Fewest cold starts per end-to-end run; `setup_s` is their median.
/// Where one start takes longer than [`skild::SETUP_BUDGET`] (cold
/// `rustc` in `serve_small` and `paper_apps`), this is how many there are.
const SETUPS: usize = 7;

/// Window length of the quiet-quarter selection (see [`quiet_quarter`]).
const QUIET_WINDOW_S: f64 = 0.25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    skild: PathBuf,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut skild) =
        (None, None, None, None, None);
    let mut out = PathBuf::from(".perfbench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            "--skild" => skild = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.filter(|&s| s >= 1).ok_or("missing or zero --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        skild: skild.ok_or("missing --skild")?,
        out,
    })
}

/// First line of a command's stdout, or `"unknown"`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Steal and total jiffies of all CPUs so far (`/proc/stat`). Steal is
/// time the hypervisor ran someone else on this machine's CPUs.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Host shape and provenance, recorded with every result.
fn host() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line(Command::new("rustc").arg("-V"));
    // Only the checkout itself: never a repository above it.
    let cwd = std::env::current_dir().unwrap_or_default();
    let commit = command_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(Path::new("/"))),
    );
    obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(rustc)),
        ("commit", Json::Str(commit)),
    ])
}

fn pct(samples: &[f64], q: f64, what: &str) -> Result<Pct, String> {
    percentile(samples, q).ok_or(format!(
        "{what}: {} samples leave fewer than 10 beyond the {q} quantile; run longer",
        samples.len()
    ))
}

fn pct_json(p: &Pct) -> Json {
    obj(vec![
        ("value", Json::Num(p.value)),
        ("samples", Json::Num(p.samples as f64)),
        ("beyond", Json::Num(p.beyond as f64)),
    ])
}

fn run(args: &Args) -> Result<(Vec<Metric>, Gate, Json), String> {
    let w = workload(&args.workload).expect("validated");
    let mut gate = Gate::new(&w);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let setups = if args.trace { 1 } else { SETUPS };
    let jiffies = cpu_jiffies();
    let e2e =
        skild::run(&w, args.seed, args.seconds as f64, setups, &args.skild, &args.out, &mut gate)?;
    let steal_pct = match (jiffies, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            Json::Num(100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => Json::Null,
    };
    write_samples(&args.out.join(format!("samples-{}-seed{}.csv", w.name, args.seed)), &e2e)?;
    let quiet = quiet_quarter(&e2e.latency, QUIET_WINDOW_S, w.block());
    let latency = quiet.latency_ms();
    let p50 = pct(&latency, 0.5, "latency")?;
    let p90 = pct(&latency, 0.9, "latency")?;
    let late = pct(&e2e.latency.iter().map(|s| s.late_ms).collect::<Vec<_>>(), 0.99, "lateness")?;
    // Percentiles beyond the reported ones, as far as the samples allow.
    let spread = |ms: &[f64]| {
        let at = |q| percentile(ms, q).map_or(Json::Null, |p| pct_json(&p));
        obj(vec![("p50_ms", at(0.5)), ("p90_ms", at(0.9)), ("p99_ms", at(0.99))])
    };
    let per_template = w
        .templates
        .iter()
        .enumerate()
        .map(|(j, t)| {
            let ms: Vec<f64> =
                e2e.latency.iter().filter(|s| s.template == j).map(|s| s.latency_ms).collect();
            (t.name, spread(&ms))
        })
        .collect();
    let all: Vec<f64> = e2e.latency.iter().map(|s| s.latency_ms).collect();
    let mut detail = vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("host", host()),
        ("host_steal_pct", steal_pct),
        ("measured_requests", Json::Num(e2e.measured as f64)),
        ("setup_s", Json::Arr(e2e.setup_s.iter().map(|&s| Json::Num(s)).collect())),
        (
            "quiet_windows",
            Json::Arr(vec![Json::Num(quiet.windows.0 as f64), Json::Num(quiet.windows.1 as f64)]),
        ),
        ("quiet_latency", spread(&latency)),
        ("all_latency", spread(&all)),
        ("late_p99_ms", pct_json(&late)),
        ("latency_per_template", obj(per_template)),
        ("peak_rss_end_mb", Json::Num(e2e.peak_rss_end_mb)),
        ("skild_stats", e2e.stats.clone().unwrap_or(Json::Null)),
    ];
    let metrics = if args.trace {
        let budget = Duration::from_secs_f64(args.seconds as f64 / 8.0);
        let (layers, more) = trace::run(&w, args.seed, budget, &args.out, &mut gate)?;
        detail.push(("trace", more));
        let mut metrics = vec![("loadgen.late_p99_ms", late.value, "ms")];
        metrics.extend(layers);
        metrics
    } else {
        vec![
            ("setup_s", median(&e2e.setup_s), "s"),
            ("throughput_rps", rate(&e2e.throughput), "1/s"),
            ("latency_p50_ms", p50.value, "ms"),
            ("latency_p90_ms", p90.value, "ms"),
            ("peak_rss_mb", e2e.peak_rss_mb, "MiB"),
        ]
    };
    let error_ratio = gate.failed as f64 / gate.attempted.max(1) as f64;
    detail.push(("error_ratio", Json::Num(error_ratio)));
    detail.push(("failures", Json::Arr(gate.failures.iter().cloned().map(Json::Str).collect())));
    Ok((metrics, gate, obj(detail)))
}

/// Every measured sample as CSV, for explaining a slow run afterwards.
fn write_samples(path: &Path, e2e: &skild::E2e) -> Result<(), String> {
    let mut csv = String::from("phase,template,done_s,latency_ms,late_ms\n");
    for (phase, samples) in [("latency", &e2e.latency), ("throughput", &e2e.throughput)] {
        for s in samples.iter() {
            csv.push_str(&format!(
                "{phase},{},{},{},{}\n",
                s.template, s.done_s, s.latency_ms, s.late_ms
            ));
        }
    }
    std::fs::write(path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Regenerate the reference table from the AST reference engine.
fn record_reference() -> ExitCode {
    let mut table = Reference::default();
    for name in WORKLOADS {
        for t in workload(name).expect("known").templates {
            let key = t.reference_key();
            if t.expect != Expect::Ok || table.0.contains_key(&key) {
                continue;
            }
            let (r, c) = t.mesh.split_once('x').expect("RxC");
            let machine =
                Machine::new(MachineConfig::mesh(r.parse().unwrap(), c.parse().unwrap()).unwrap());
            let run = compile(source(t.program)).expect("compiles").run_with(Engine::Ast, &machine);
            table
                .0
                .insert(key, Outcome { results: run.results, sim_cycles: run.report.sim_cycles });
        }
    }
    print!("{}", table.to_json());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record-reference") {
        return record_reference();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (metrics, gate, detail) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = gate.failed == 0;
    let metrics = obj(metrics
        .iter()
        .map(|&(name, value, unit)| {
            (name, obj(vec![("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
        })
        .collect());
    println!("{}", obj(vec![("perfbench", detail)]));
    println!(
        "{}",
        obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(gate.attempted as f64)),
            ("failed", Json::Num(gate.failed as f64)),
            ("metrics", metrics),
        ])
    );
    for f in &gate.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
