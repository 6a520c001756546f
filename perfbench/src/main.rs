//! `perfbench`, the repository benchmark. `BENCHMARK.json` at the
//! repository root lists its workloads and metrics; run it from the root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm|serve_recal --seed N --seconds S --trace 0|1
//! ```
//!
//! A run builds its inputs from `--seed`, measures for `--seconds`,
//! checks the program's outputs, prints a report, and ends with one JSON
//! line holding `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! spans anywhere. `--trace 1` is the separate traced run: it replays the
//! workload through each layer's public API under spans and reports the
//! per-layer metrics. A failed check prints `"correct": false` and exits
//! with code 1; bad arguments or an unusable working directory exit with
//! code 2 before any result.

mod client;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use vaqem_fleet_rpc::Frame;
use vaqem_runtime::persist::Codec;
use vaqem_runtime::JsonValue;

use crate::stats::Samples;

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("sessions_per_s", "1/s"),
    ("slo_attainment", "share"),
    ("objective_gain", "ratio"),
    ("setup_s", "s"),
];

/// The workloads, by the names `--workload` takes.
const WORKLOADS: [&str; 2] = ["serve_warm", "serve_recal"];

/// Where runs keep their stores and sockets, relative to the working
/// directory (the repository root); each run removes its own directory.
const WORK_ROOT: &str = ".bench_work";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed {value}: not an unsigned integer"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {value}: not a positive number"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What a workload run hands back for the result line.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Sessions attempted in the measured span.
    pub attempted: u64,
    /// Attempted sessions that failed or were refused.
    pub failed: u64,
    /// Metric values by name, in report order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
}

impl RunResult {
    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Prints a latency distribution the way the report states every
/// timing: sample count, median, and each tail percentile that has at
/// least ten samples beyond it.
pub fn print_latencies(label: &str, latencies: &Samples) {
    println!("{label}: n={} samples", latencies.len());
    let ms = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.4} ms", v * 1e3));
    println!("  p50 = {}", ms(latencies.median()));
    for (name, q) in [("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)] {
        match latencies.supported(q) {
            Some(v) => println!(
                "  {name} = {} ({} samples beyond)",
                ms(Some(v)),
                latencies.beyond(q)
            ),
            None => println!(
                "  {name} not reported: {} samples beyond it, fewer than {}",
                latencies.beyond(q),
                stats::MIN_BEYOND
            ),
        }
    }
}

/// `Frame::to_wire` + `Frame::decode` of `frames`, in nanoseconds.
pub fn codec_ns(frames: &[Frame]) -> f64 {
    let start = Instant::now();
    for frame in frames {
        let wire = frame.to_wire();
        let mut payload = &wire[4..];
        let decoded = Frame::decode(&mut payload);
        assert!(
            decoded.as_ref() == Some(frame) && payload.is_empty(),
            "frame round-trips"
        );
    }
    start.elapsed().as_secs_f64() * 1e9
}

/// The commit the working tree was taken at, when it is a git checkout.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({reference})")),
        None => head.to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload serve_warm|serve_recal \
                 --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    // Measure the daemon's default pump and journal modes, whatever the
    // caller's environment selects.
    std::env::remove_var("VAQEM_RPC_PUMP");
    std::env::remove_var("VAQEM_JOURNAL_MODE");
    let work = PathBuf::from(WORK_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench --workload {} --seed {} --seconds {} --trace {} | nproc {nproc} | commit {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    let mut result = serve::run(
        args.workload == "serve_recal",
        args.seed,
        args.seconds,
        args.trace,
        &work,
    );
    let _ = std::fs::remove_dir_all(&work);
    // Removed only when empty: a concurrent run keeps its own directory.
    let _ = std::fs::remove_dir(WORK_ROOT);

    let expected: Vec<(&str, &str)> = if args.trace {
        trace::LAYER_METRICS
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END.to_vec()
    };
    // A set-up failure has already said why; nothing was measured.
    if !result.metrics.is_empty() || result.failures.is_empty() {
        let names: Vec<&str> = result.metrics.iter().map(|(n, _)| *n).collect();
        let wanted: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        result.check(names == wanted, || format!("metrics reported: {names:?}"));
    }
    let bad: Vec<&str> = result
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(n, _)| *n)
        .collect();
    result.check(bad.is_empty(), || format!("non-finite metrics: {bad:?}"));
    result.check(result.attempted >= 1, || "no session was attempted".into());
    if !args.trace {
        for (name, unit) in END_TO_END {
            let value = result
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            println!("{name:<16} {:>14.6} {unit}", value.unwrap_or(f64::NAN));
        }
    }
    for failure in &result.failures {
        println!("CHECK FAILED: {failure}");
    }
    let metrics = JsonValue::object(expected.iter().map(|(name, unit)| {
        let value = result
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        (
            name.to_string(),
            JsonValue::object([
                ("value", JsonValue::Num(value)),
                ("unit", JsonValue::from(*unit)),
            ]),
        )
    }));
    let correct = result.failures.is_empty();
    let line = JsonValue::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::from(result.attempted)),
        ("failed", JsonValue::from(result.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in one section of `BENCHMARK.json`.
    fn entries(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("{section} in BENCHMARK.json"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let from = entry
                .find(&format!("\"{key}\""))
                .map(|i| &entry[i + key.len() + 2..]);
            from.and_then(|rest| rest.split('"').nth(1))
                .unwrap_or_default()
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    /// `BENCHMARK.json` declares exactly the workloads and metrics the
    /// runs print, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = include_str!("../../BENCHMARK.json");
        let workloads: Vec<String> = entries(json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(entries(json, "end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> = trace::LAYER_METRICS
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(entries(json, "per_layer"), per_layer);
    }

    #[test]
    fn frames_round_trip_through_the_codec_timer() {
        let ns = codec_ns(&[Frame::Poll, Frame::ShutdownAck]);
        assert!(ns > 0.0);
    }
}
