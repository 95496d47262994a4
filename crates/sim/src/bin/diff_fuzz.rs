//! Differential fuzzer CLI: co-simulates the whole fabric fleet
//! (golden-model crossbar, 2D Swizzle, 3D folded, Hi-Rise under L-2-L
//! LRG / WLRG / CLRG at channel multiplicities 1 and 2) on random
//! schedules, and shrinks any divergence to a minimal counterexample.
//!
//! ```text
//! cargo run -p hirise-sim --bin diff_fuzz -- \
//!     [--radix 16] [--cycles 60] [--rate 0.25] [--seed 1] [--rounds 200]
//! ```
//!
//! Exits non-zero iff a counterexample was found; the shrunk schedule is
//! printed so it can be pasted into a regression test.

use hirise_core::rng::{SeedableRng, StdRng};
use hirise_sim::diff::{check_schedule, fuzz_once, standard_fleet, Schedule};
use std::process::ExitCode;

struct Options {
    radix: usize,
    cycles: u64,
    rate: f64,
    seed: u64,
    rounds: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        radix: 16,
        cycles: 60,
        rate: 0.25,
        seed: 1,
        rounds: 200,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--radix" => options.radix = parse(&value("--radix")?)?,
            "--cycles" => options.cycles = parse(&value("--cycles")?)?,
            "--rate" => options.rate = parse(&value("--rate")?)?,
            "--seed" => options.seed = parse(&value("--seed")?)?,
            "--rounds" => options.rounds = parse(&value("--rounds")?)?,
            "--help" | "-h" => {
                return Err("usage: diff_fuzz [--radix N] [--cycles N] [--rate F] \
                     [--seed N] [--rounds N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if options.radix == 0 || !options.radix.is_multiple_of(4) {
        return Err("--radix must be a positive multiple of 4 (fleet uses 4 layers)".into());
    }
    if !(0.0..=1.0).contains(&options.rate) {
        return Err("--rate must be in [0, 1]".into());
    }
    Ok(options)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("bad value {s:?}: {e}"))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let fleet = standard_fleet();
    println!(
        "fuzzing {} fabrics: radix {}, {} cycles/round, rate {}, seeds {}..{}",
        fleet.len(),
        options.radix,
        options.cycles,
        options.rate,
        options.seed,
        options.seed + options.rounds
    );
    let mut total_packets = 0usize;
    for round in 0..options.rounds {
        let seed = options.seed + round;
        // Re-derive the schedule for reporting (fuzz_once uses the same
        // construction internally).
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = Schedule::random(&mut rng, options.radix, options.cycles, options.rate, 4);
        total_packets += schedule.packets.len();
        if let Some((minimal, failure)) =
            fuzz_once(&fleet, options.radix, options.cycles, options.rate, seed)
        {
            eprintln!("seed {seed}: {failure}");
            eprintln!(
                "minimal counterexample ({} packets, radix {}):",
                minimal.packets.len(),
                minimal.radix
            );
            for packet in &minimal.packets {
                eprintln!(
                    "  cycle {:>4}  {:>3} -> {:<3}  {} flits",
                    packet.inject_cycle, packet.src, packet.dst, packet.len_flits
                );
            }
            // Confirm the minimal schedule still fails, for the report.
            if let Some(confirmed) = check_schedule(&fleet, &minimal) {
                eprintln!("confirmed: {confirmed}");
            }
            return ExitCode::FAILURE;
        }
        if (round + 1) % 50 == 0 {
            println!(
                "  {} rounds clean ({total_packets} packets co-simulated)",
                round + 1
            );
        }
    }
    println!(
        "all {} rounds clean: {total_packets} packets co-simulated across {} fabrics",
        options.rounds,
        fleet.len()
    );
    ExitCode::SUCCESS
}
