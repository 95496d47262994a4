//! The campaign workloads, `switch-grid` and `network`: each runs its
//! two lab campaigns to verified JSONL files, alternately, for the
//! measurement window.

use crate::outcome::{describe_ms, Outcome};
use crate::parts::{Part, Workload, PIN_SEED};
use crate::record::{read_campaign, CampaignFile};
use crate::split::geometry;
use crate::stats::median;
use hirise_lab::{campaign_from_json, CampaignSpec, Silent};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times before the first timed campaign,
/// and once more before every round of the measurement window; the
/// median of all of them is reported. One set-up takes about 0.1 ms and
/// the host's speed moves from second to second, so samples spread over
/// the whole window are much steadier than a burst at its start.
pub const SETUP_REPS: usize = 31;

/// Pinned digests of each part's JSONL at [`PIN_SEED`], one
/// `<name> <hex digest>` pair per line.
const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `name`'s output at [`PIN_SEED`].
pub fn pinned(name: &str) -> Option<u64> {
    PINS.lines().find_map(|line| {
        let (key, hex) = line.split_once(' ')?;
        (key == name).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// Checks `digest` against the pin for `name`.
pub fn check_pin(name: &str, digest: u64) -> Result<(), String> {
    match pinned(name) {
        Some(pin) if pin == digest => Ok(()),
        Some(pin) => Err(format!(
            "output digest {digest:016x} differs from the pinned {pin:016x} at seed {PIN_SEED}"
        )),
        None => Err(format!("no pinned digest for {name}")),
    }
}

/// One part, ready to run.
struct Prepared {
    part: Part,
    spec: CampaignSpec,
    jobs: usize,
}

/// Set-up before the first timed campaign: create the output
/// directory, build each part's spec from the seed, round-trip it
/// through the lab's JSON parser as a user's submission would, expand
/// its jobs, and build each fabric (and a network part's topology) once
/// so a bad grid fails here.
fn setup(parts: &[Part], seed: u64, dir: &Path) -> Result<Vec<Prepared>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    parts
        .iter()
        .map(|&part| {
            let spec = part.spec(seed);
            let parsed = campaign_from_json(&spec.canonical_json())
                .map_err(|e| format!("{}: spec does not parse back: {e}", part.name()))?;
            if parsed.digest() != spec.digest() {
                return Err(format!(
                    "{}: spec changes in a JSON round trip",
                    part.name()
                ));
            }
            for fabric in spec.expanded_fabrics() {
                drop(fabric.build());
            }
            let jobs = spec.jobs();
            if part.is_network() {
                geometry(&spec, &jobs[0]).map_err(|e| format!("{}: {e}", part.name()))?;
            }
            Ok(Prepared {
                part,
                jobs: jobs.len(),
                spec,
            })
        })
        .collect()
}

/// Times one set-up from a fresh output directory, adding its seconds
/// to `setup_s`.
fn timed_setup(
    parts: &[Part],
    seed: u64,
    dir: &Path,
    setup_s: &mut Vec<f64>,
) -> Result<Vec<Prepared>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let result = setup(parts, seed, dir);
    setup_s.push(start.elapsed().as_secs_f64());
    result
}

/// Runs `spec` to `path` on `threads` lab workers and checks the file.
pub fn run_campaign_on(
    threads: usize,
    spec: &CampaignSpec,
    path: &Path,
) -> (Duration, Result<CampaignFile, String>) {
    let _ = std::fs::remove_file(path);
    let jobs = spec.jobs().len();
    let start = Instant::now();
    let ran = spec.run_to_file(path, threads, &Silent);
    let elapsed = start.elapsed();
    let checked = match ran {
        Ok(outcome) if outcome.ran == jobs => read_campaign(path, jobs),
        Ok(outcome) => Err(format!("ran {} of {jobs} jobs", outcome.ran)),
        Err(e) => Err(format!("run_to_file failed: {e}")),
    };
    (elapsed, checked)
}

/// Re-runs every job of `spec` with `run_job` and requires the records
/// to equal `file`'s.
fn reference_check(spec: &CampaignSpec, file: &CampaignFile) -> Result<(), String> {
    for (job, recorded) in spec.jobs().iter().zip(&file.records) {
        if spec.run_job(job).to_jsonl_line() != *recorded {
            return Err(format!("job {} differs from a direct run_job", job.index));
        }
    }
    Ok(())
}

/// Digest of `part`'s JSONL at [`PIN_SEED`].
pub fn pin_digest(part: Part, dir: &Path) -> Result<u64, String> {
    let path = dir.join(format!("{}-pin.jsonl", part.name()));
    let (_, file) = run_campaign_on(part.threads(), &part.spec(PIN_SEED), &path);
    file.map(|f| f.digest())
}

/// Untimed warm-up before the measurement window.
pub const WARMUP: Duration = Duration::from_secs(2);

/// Runs rounds of every part's campaign until `duration` has passed
/// (at least one round), calling `before_round` ahead of each, checking
/// each file and requiring every run of a campaign to write the same
/// bytes as its first. Returns each part's campaign times in ms and the
/// jobs run.
fn rounds(
    prepared: &[Prepared],
    dir: &Path,
    duration: Duration,
    first: &mut [Option<CampaignFile>],
    out: &mut Outcome,
    mut before_round: impl FnMut(&mut Outcome),
) -> (Vec<Vec<f64>>, usize) {
    let mut ms = vec![Vec::new(); prepared.len()];
    let mut jobs_done = 0;
    let started = Instant::now();
    loop {
        before_round(out);
        for (i, p) in prepared.iter().enumerate() {
            let path = dir.join(format!("{}.jsonl", p.part.name()));
            let (elapsed, file) = run_campaign_on(p.part.threads(), &p.spec, &path);
            ms[i].push(elapsed.as_secs_f64() * 1e3);
            jobs_done += p.jobs;
            let file = file.and_then(|f| match &first[i] {
                Some(earlier) if earlier.text != f.text => {
                    Err("JSONL differs from an earlier run of the same campaign".to_string())
                }
                _ => Ok(f),
            });
            if let Some(f) = out.check(p.part.name(), file) {
                first[i].get_or_insert(f);
            }
        }
        if started.elapsed() >= duration {
            return (ms, jobs_done);
        }
    }
}

/// Runs a campaign workload for `seconds` and checks every output.
pub fn run(workload: Workload, seed: u64, seconds: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let parts = workload.parts();

    let mut setup_s = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUP_REPS {
        match timed_setup(parts, seed, dir, &mut setup_s) {
            Ok(p) => prepared = p,
            Err(e) => {
                out.check("setup", Err::<(), _>(e));
                return out;
            }
        }
    }

    let mut first: Vec<Option<CampaignFile>> = vec![None; parts.len()];
    // Untimed warm-up rounds: the host runs bursts faster than
    // sustained load, so the window starts from the sustained state.
    rounds(&prepared, dir, WARMUP, &mut first, &mut out, |_| {});
    let started = Instant::now();
    let (ms, jobs_done) = rounds(
        &prepared,
        dir,
        Duration::from_secs(seconds),
        &mut first,
        &mut out,
        |out| {
            if let Err(e) = timed_setup(parts, seed, dir, &mut setup_s) {
                out.check("setup", Err::<(), _>(e));
            }
        },
    );
    let window_s = started.elapsed().as_secs_f64();

    for (p, file) in prepared.iter().zip(&first) {
        let name = p.part.name();
        if let Some(file) = file {
            out.check(
                &format!("{name} vs run_job"),
                reference_check(&p.spec, file),
            );
            out.note(format!("{name} digest {:016x}", file.digest()));
        }
        let pin = match file {
            Some(f) if seed == PIN_SEED => Ok(f.digest()),
            _ => pin_digest(p.part, dir),
        };
        out.check(
            &format!("{name} pinned digest"),
            pin.and_then(|d| check_pin(name, d)),
        );
    }

    for (p, samples) in prepared.iter().zip(&ms) {
        out.note(format!(
            "{}_s {} s ({})",
            p.part.name(),
            median(samples) / 1e3,
            describe_ms(samples)
        ));
    }
    out.note(format!("jobs_per_s {} 1/s", jobs_done as f64 / window_s));
    out.end_to_end(&setup_s, &ms[0], &ms[1]);
    out
}
