//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of the traced
//! replay. Earlier lines are human-readable notes, the failed checks and
//! the model fingerprint (`fingerprint <hex>`).

use std::process::ExitCode;

use albatross_perfbench::run::{end_to_end, traced, Outcome};
use albatross_perfbench::workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed().is_empty(),
        out.checks.run(),
        out.checks.failed().len(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for f in out.checks.failed() {
        println!("# CHECK FAILED: {f}");
    }
    println!(
        "# check_fail_ratio {} ({} of {} checks)",
        out.checks.failed().len() as f64 / out.checks.run().max(1) as f64,
        out.checks.failed().len(),
        out.checks.run()
    );
    for m in &out.metrics {
        println!("# metric {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("fingerprint {}", out.fingerprint);
    println!("{}", json(&out));
    ExitCode::SUCCESS
}
