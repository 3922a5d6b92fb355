//! The repository's benchmark: EC-time against LRC-diff on three workloads,
//! 2 DSM processors as 2 worker threads.
//!
//! ```text
//! perfbench --workload kv-read|kv-write|paper-apps --seed N --seconds S --trace 0|1
//! ```
//!
//! Output: a header line (JSON: host CPU count, git commit, command line,
//! the unit of every metric), `#`-prefixed notes (per-family sample counts,
//! failures, `error_rate`), and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones, and
//! the run's spans are written to `.bench_out/<workload>.spans.csv`.
//! Workload, metric and layer choices are explained in `perfbench/NOTES.md`.

mod apps;
mod guard;
mod kv;
mod layers;
mod metrics;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use layers::Family;
use metrics::{json_str, ratio, Metrics, FAMILIES};

/// DSM processors (worker threads) in every workload: the host's core count
/// at the time the benchmark was defined, so nothing is oversubscribed.
pub const PROCS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["kv-read", "kv-write", "paper-apps"];

/// What a workload measured.
pub struct Outcome {
    metrics: Metrics,
    families: [Family; 2],
    notes: Vec<String>,
}

impl Outcome {
    fn attempted(&self) -> u64 {
        self.families.iter().map(|f| f.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.families.iter().map(|f| f.failed).sum()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?} (use {WORKLOADS:?})")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The checkout's commit, when it is a git checkout.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn header(argv: &[String], args: &Args) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let catalogue = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let units: Vec<String> = catalogue
        .iter()
        .chain(std::iter::once(&("error_rate".to_string(), "fraction")))
        .map(|(n, u)| format!("{}:{}", json_str(n), json_str(u)))
        .collect();
    let argv: Vec<String> = argv.iter().map(|a| json_str(a)).collect();
    format!(
        "{{\"bench\":\"perfbench\",\"host_cpus\":{cpus},\"procs\":{PROCS},\"git_commit\":{},\
         \"command\":[{}],\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"implementations\":[\"EC-time\",\"LRC-diff\"],\"units\":{{{}}}}}",
        json_str(&git_commit()),
        argv.join(","),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        units.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--peer") {
        apps::run_peer();
    }
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload kv-read|kv-write|paper-apps --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", header(&argv, &args));
    guard::install_panic_hook();
    let out = match args.workload.as_str() {
        "kv-read" => kv::measure(&kv::KvWorkload::read(), args.seed, args.seconds, args.trace),
        "kv-write" => kv::measure(
            &kv::KvWorkload::write(),
            args.seed,
            args.seconds,
            args.trace,
        ),
        _ => apps::measure(args.seed, args.seconds, args.trace),
    };
    for note in &out.notes {
        println!("# {note}");
    }
    let (attempted, failed) = (out.attempted(), out.failed());
    println!(
        "# error_rate = {} fraction ({failed} failed of {attempted} attempted)",
        ratio(failed, attempted)
    );
    let catalogue = if args.trace {
        let path = Path::new(".bench_out").join(format!("{}.spans.csv", args.workload));
        let kept: Vec<(&str, Vec<trace::Span>)> = FAMILIES
            .iter()
            .zip(&out.families)
            .map(|(f, fam)| (*f, fam.kept_spans.clone()))
            .collect();
        match trace::write_csv(&path, &kept) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        out.metrics.emit(&catalogue, !args.trace)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names listed under `key` in the repository's `BENCHMARK.json`
    /// (a minimal scan: every `"name": "..."` inside that array).
    fn benchmark_json_names(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| {
                let s = &s[s.find('"').expect("name value") + 1..];
                s[..s.find('"').expect("name closes")].to_string()
            })
            .collect()
    }

    fn names(catalogue: &[(String, &str)]) -> Vec<String> {
        catalogue.iter().map(|(n, _)| n.clone()).collect()
    }

    #[test]
    fn printed_metric_names_are_those_in_benchmark_json() {
        assert_eq!(
            names(&metrics::end_to_end()),
            benchmark_json_names("end_to_end")
        );
        assert_eq!(
            names(&metrics::per_layer()),
            benchmark_json_names("per_layer")
        );
        assert_eq!(benchmark_json_names("workloads"), WORKLOADS);
    }

    #[test]
    fn emitted_metrics_follow_the_catalogue() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let json = m.emit(&metrics::end_to_end()[..1], true);
        assert_eq!(json, "{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}");
        let cat = metrics::per_layer();
        let json = Metrics::default().emit(&cat, false);
        assert_eq!(json.matches("\"value\":").count(), cat.len());
    }

    #[test]
    fn arguments_are_checked() {
        let ok: Vec<String> = [
            "--workload",
            "kv-read",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&ok).expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kv-read", 3, 5, true)
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"][..],
            &["--trace", "2"][..],
        ] {
            let bad: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&bad).is_err());
        }
    }
}
