//! Command line of the repository benchmark:
//!
//! ```text
//! perfbench --workload <batch-paper|serve-publish|serve-repair>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a correctness check
//! fails and 2 on a usage or set-up error.

use perfbench::machine::MachineRecord;
use perfbench::{run, Params, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Durable shard state and span files live here, under the working
/// directory.
const STATE_DIR: &str = ".perfbench";

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <batch-paper|serve-publish|serve-repair> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown option {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let machine = MachineRecord::probe();
    if workload.client_threads() > machine.nproc {
        return usage(&format!(
            "{} needs {} client threads but only {} hardware threads exist",
            workload.name(),
            workload.client_threads(),
            machine.nproc
        ));
    }
    println!(
        "machine: {{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {traced}, \
         \"nproc\": {}, \"client_threads\": {}, \"client_connections\": {}, \"cpu_model\": \"{}\", \
         \"rustc\": \"{}\", \"git_commit\": \"{}\"}}",
        workload.name(),
        machine.nproc,
        workload.client_threads(),
        workload.client_connections(),
        machine.cpu_model,
        machine.rustc,
        machine.git_commit
    );
    let params = Params {
        seed,
        seconds,
        state_dir: PathBuf::from(STATE_DIR),
        smoke,
    };
    let outcome = match run(workload, &params, traced) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    let gated: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for line in outcome.report_lines(gated) {
        println!("{line}");
    }
    println!("{}", outcome.json_line(gated));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
