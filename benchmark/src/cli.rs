//! Command-line parsing.

use std::path::PathBuf;

use crate::metrics::Workload;
use crate::round::RoundOpts;

/// What the process was asked to do.
#[derive(Debug, Clone)]
pub enum Command {
    /// One round of one workload (`--workload …`); what the benchmark
    /// driver invokes, and what `run` spawns per round.
    Round(RoundOpts),
    /// All workloads, several rounds each, then one traced round each.
    Run(RunOpts),
    /// Compare two results files.
    Compare {
        /// The baseline results file.
        baseline: PathBuf,
        /// The candidate results file.
        candidate: PathBuf,
    },
    /// Print the usage text.
    Help,
}

/// Options of the `run` command.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workloads to run, in interleaving order.
    pub workloads: Vec<Workload>,
    /// Untraced rounds per workload.
    pub rounds: usize,
    /// Seed of every round.
    pub seed: u64,
    /// Measured seconds per round.
    pub seconds: f64,
    /// Size multiplier.
    pub scale: f64,
    /// Scratch, trace and results directory.
    pub out_dir: PathBuf,
}

/// The usage text.
pub const USAGE: &str = "\
ghba-benchmark: four workloads, seven end-to-end metrics, one per-layer trace

  ghba-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one round; prints the result as the last line of stdout.
      [--scale <x>] [--out-dir <dir>]
  ghba-benchmark run [--rounds 5] [--seed 1] [--seconds 6] [--scale 1]
      every workload, rounds interleaved, then one traced round each;
      writes <out-dir>/results.json and prints every metric.
      [--smoke] (= --scale 0.05 --rounds 1 --seconds 1)
      [--workload <name>]... [--out-dir <dir>]
  ghba-benchmark compare <baseline.json> <candidate.json>
      medians, relative difference and bound per workload and metric;
      exits 1 when a metric is worse than its bound.

workloads: read_hot write_churn reconfig_reads net_mixed
";

fn default_out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn value<'a>(args: &'a [String], at: &mut usize, flag: &str) -> Result<&'a str, String> {
    *at += 1;
    args.get(*at)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read `{text}`"))
}

fn positive(text: &str, flag: &str) -> Result<f64, String> {
    let n: f64 = number(text, flag)?;
    if n.is_finite() && n > 0.0 {
        Ok(n)
    } else {
        Err(format!("{flag} must be positive, got `{text}`"))
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// An unknown flag, a missing or unreadable value, or a round without a
/// workload.
pub fn parse(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => return Ok(Command::Help),
        Some("compare") => {
            return match args {
                [_, baseline, candidate] => Ok(Command::Compare {
                    baseline: baseline.into(),
                    candidate: candidate.into(),
                }),
                _ => Err("compare takes two results files".to_string()),
            }
        }
        _ => {}
    }
    let run = args[0] == "run";
    let mut workloads = Vec::new();
    let mut seed = 1u64;
    let mut seconds = if run { 6.0 } else { 15.0 };
    let mut scale = 1.0;
    let mut trace = false;
    let mut rounds = 5usize;
    let mut out_dir = default_out_dir();
    let mut at = usize::from(run);
    while at < args.len() {
        let flag = args[at].as_str();
        match flag {
            "--workload" => {
                let name = value(args, &mut at, flag)?;
                workloads.push(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = number(value(args, &mut at, flag)?, flag)?,
            "--seconds" => seconds = positive(value(args, &mut at, flag)?, flag)?,
            "--scale" => scale = positive(value(args, &mut at, flag)?, flag)?,
            "--trace" => {
                trace = match value(args, &mut at, flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out-dir" => out_dir = value(args, &mut at, flag)?.into(),
            "--rounds" if run => rounds = number(value(args, &mut at, flag)?, flag)?,
            "--smoke" if run => {
                scale = 0.05;
                rounds = 1;
                seconds = 1.0;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        at += 1;
    }
    if run {
        if workloads.is_empty() {
            workloads = Workload::ALL.to_vec();
        }
        return Ok(Command::Run(RunOpts {
            workloads,
            rounds: rounds.max(1),
            seed,
            seconds,
            scale,
            out_dir,
        }));
    }
    match workloads.as_slice() {
        [workload] => Ok(Command::Round(RoundOpts {
            workload: *workload,
            seed,
            seconds,
            scale,
            trace,
            out_dir,
        })),
        _ => Err("a round takes exactly one --workload".to_string()),
    }
}
