//! `ghba-benchmark`: see `README.md` beside this package.

use std::process::ExitCode;

use ghba_benchmark::cli::{self, Command};
use ghba_benchmark::{compare, report, round, run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match cli::parse(&args) {
        Err(why) => Err(format!("{why}\n\n{}", cli::USAGE)),
        Ok(Command::Help) => {
            print!("{}", cli::USAGE);
            Ok(true)
        }
        Ok(Command::Compare {
            baseline,
            candidate,
        }) => compare::compare_files(&baseline, &candidate),
        Ok(Command::Run(opts)) => run::run(&opts),
        Ok(Command::Round(opts)) => round::run_round(&opts).map(|round| {
            if let Some(why) = &round.failure {
                eprintln!("ghba-benchmark: {}: {why}", opts.workload.name());
            }
            println!("{}", report::info_line(&round, opts.trace));
            println!("{}", report::result_line(&round, opts.trace));
            round.correct()
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ghba-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
