//! The repository benchmark.  Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run environment and every metric by name and unit, then
//! one JSON result line; see `perfbench/README.md`.

mod gen;
mod ingest;
mod measure;
mod report;
mod serve_read;

use report::{Outcome, RunCfg, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

/// Where runs keep their store directories, result files and spans.
const OUT_DIR: &str = ".perfbench_out";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <serve_read|serve_ingest|durable_ingest> \
         --seed <n> --seconds <n> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let mut out = match workload.as_str() {
        "serve_read" => serve_read::run(&cfg),
        "serve_ingest" => ingest::serve_ingest(&cfg),
        "durable_ingest" => ingest::durable_ingest(&cfg, out_dir),
        _ => return usage(),
    };
    out.layer(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    let env = environment(&out, out_dir);
    for line in &out.notes {
        println!("{line}");
    }
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    for (name, value) in out.e2e.iter().chain(&out.layer) {
        println!("{name} = {value} {}", unit(name));
    }
    println!("env: {env}");
    let result = out.result_json(trace);
    let file = out_dir.join(format!("{}-trace{}.json", out.workload, u8::from(trace)));
    let _ = std::fs::write(&file, format!("{{\"env\": {env}, \"result\": {result}}}\n"));
    if let Some(spans) = &out.spans {
        let _ = std::fs::write(out_dir.join(format!("{}.spans.tsv", out.workload)), spans);
    }
    println!("{result}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// The run environment as a JSON object: machine, threads, commit and
/// the workload's parameters.
fn environment(out: &Outcome, out_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), measure::json_str(out.workload)),
        ("nproc".into(), nproc.to_string()),
        ("threads".into(), "1".into()),
        ("commit".into(), measure::json_str(&measure::commit())),
        (
            "out_dir".into(),
            measure::json_str(&out_dir.display().to_string()),
        ),
    ];
    for (k, v) in &out.params {
        fields.push((k.to_string(), measure::json_str(v)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", measure::json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
