//! `gcbench` command line.
//!
//! ```text
//! gcbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!         [--trace-out FILE]
//! ```
//!
//! Prints a run record (configuration, op counts, digest) and then, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`.

use std::process::ExitCode;

use gcbench::metrics::{end_to_end, per_layer, Metric};
use gcbench::{Size, Workload, DEFAULT_SEED, EXEC, HELD_OUT_SEED, PACING};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: gcbench --workload <{}> [--seed N (default {DEFAULT_SEED}; held-out \
         {HELD_OUT_SEED})] [--seconds S] [--trace 0|1] [--trace-out FILE]",
        names.join("|")
    )
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::HeapscaleLarge,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("gcbench: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    // `--seconds` buys whole rounds, so the simulated work — and every
    // exact counter — depends only on the arguments, never on host speed.
    let rounds = (args.seconds / args.workload.nominal_round_s())
        .round()
        .max(3.0) as usize;
    let report = gcbench::run(
        args.workload,
        &Size::standard(),
        args.seed,
        rounds,
        args.trace,
    );

    let l = &report.ledger;
    let host_cpus = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"rounds\": {}, \"trace\": {}, \
         \"pacing\": \"{}\", \"exec\": \"serial\", \"exec_workers\": {}, \"host_cpus\": {host_cpus}, \
         \"ops\": {}, \"ops_failed\": {}, \"digest\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        report.rounds,
        args.trace,
        PACING.name(),
        EXEC.workers(),
        l.ops,
        l.ops_failed,
        report.digest().hex(),
    );
    if args.trace {
        let path = args.trace_out.clone().unwrap_or_else(|| {
            format!(
                "{}/out/spans-{}-seed{}.json",
                env!("CARGO_MANIFEST_DIR"),
                args.workload.name(),
                args.seed
            )
        });
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, report.tracer.chrome_json()));
        match written {
            Ok(()) => eprintln!(
                "gcbench: {} spans written to {path}",
                report.tracer.spans().len()
            ),
            Err(e) => eprintln!("gcbench: cannot write spans to {path}: {e}"),
        }
    }
    let metrics = if args.trace {
        per_layer(&report)
    } else {
        end_to_end(&report)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        l.ops,
        l.ops_failed,
        json_metrics(&metrics)
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
