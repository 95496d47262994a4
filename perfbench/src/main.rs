//! `hirise-perfbench --workload <switch-grid|network|serve> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or, with `--trace 1`, the traced layer split)
//! from the current directory, writing only under `.bench_out/`. Prints
//! human-readable lines, then one JSON result line; exits 1 if any
//! output check failed. `--print-pins` prints the digests `pins.txt`
//! holds.

use hirise_perfbench::campaigns::{self, pin_digest};
use hirise_perfbench::outcome::Outcome;
use hirise_perfbench::parts::{Part, Workload};
use hirise_perfbench::{serve, split};
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage: hirise-perfbench --workload <switch-grid|network|serve> \
                     --seed <n> --seconds <s> --trace <0|1>  |  --print-pins";

/// Longest request stream the traced split runs against the server.
const SPLIT_SERVE_SECONDS: u64 = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn fail(message: &str) -> ! {
    eprintln!("hirise-perfbench: {message}\n{USAGE}");
    exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::from_name(&name)
                        .unwrap_or_else(|| fail(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => seed = value().parse().ok().or_else(|| fail("bad --seed")),
            "--seconds" => {
                seconds = value()
                    .parse()
                    .ok()
                    .filter(|&s: &u64| s >= 1)
                    .or_else(|| fail("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--print-pins" => print_pins(),
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| fail("missing --workload")),
        seed: seed.unwrap_or_else(|| fail("missing --seed")),
        seconds: seconds.unwrap_or_else(|| fail("missing --seconds")),
        trace: trace.unwrap_or_else(|| fail("missing --trace")),
    }
}

fn print_pins() -> ! {
    let dir = Path::new(".bench_out").join(format!("pins-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    for part in Part::ALL {
        match pin_digest(part, &dir) {
            Ok(digest) => println!("{} {digest:016x}", part.name()),
            Err(e) => fail(&format!("{}: {e}", part.name())),
        }
    }
    println!("serve {:016x}", serve::pin_digest());
    let _ = std::fs::remove_dir_all(&dir);
    exit(0)
}

fn main() {
    let args = parse_args();
    let out_root = Path::new(".bench_out");
    let dir = out_root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome: Outcome = if args.trace {
        let spans = out_root.join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        split::run(
            args.seed,
            args.seconds.min(SPLIT_SERVE_SECONDS),
            &dir,
            &spans,
        )
    } else {
        match args.workload {
            Workload::Serve => serve::run(args.seed, args.seconds, &dir),
            w => campaigns::run(w, args.seed, args.seconds, &dir),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("nproc {nproc}");
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", outcome.result_line());
    if !outcome.correct() || !finite || outcome.metrics.is_empty() {
        exit(1);
    }
}
