//! The traced layer split (`--trace 1`): every part of every workload
//! re-run through delegating wrappers, so host time splits into
//! fabric, traffic, single-switch loop, network engine, lab and serve.
//!
//! Each part is run untraced and traced from the same specs and seeds.
//! The traced reports and rebuilt records must equal the untraced ones
//! and the lab's own JSONL, so tracing provably changes nothing; its
//! cost is reported per part as `trace.overhead.<part>`.

use crate::campaigns::run_campaign_on;
use crate::outcome::Outcome;
use crate::parts::{fabric_key, serve_campaign, Part, FABRIC_KEYS, SERVER_WORKERS, SPLIT_SHARDS};
use crate::record::{routed_line, single_switch_line, CampaignFile};
use crate::serve::{latencies_ms, run_stream, verify, RequestLog, Session};
use crate::stats::{max, median, process_cpu_seconds};
use crate::trace::{
    read, sink, timer_floor_ns, FabricTally, Sink, SpanId, Spans, TracedFabric, TracedPattern,
    TrafficTally,
};
use hirise_core::Fabric;
use hirise_lab::{derive_seed, CampaignSpec, FaultSpec, Job, SimParams, Topology};
use hirise_sim::dragonfly::{sample_dead_links, DragonflyConfig, DragonflyGeometry, GlobalLinkMap};
use hirise_sim::mesh_sim::{MeshGeometry, MeshPortMap, MeshReport};
use hirise_sim::shard::{ShardTopology, ShardedConfig, ShardedSim};
use hirise_sim::traffic::TrafficPattern;
use hirise_sim::{NetworkSim, SimReport};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One phase of a request's latency.
type Phase = fn(&RequestLog) -> Duration;

/// Untraced/traced simulator runs per job.
const REPS: usize = 2;

/// Every per-layer metric the split reports: name, unit, direction.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    let mut add = |name: String, unit: &'static str, better: &'static str| {
        v.push((name, unit, better));
    };
    for f in FABRIC_KEYS {
        add(format!("core.arbitrate_ns.{f}"), "ns", "lower");
        add(format!("core.release_ns.{f}"), "ns", "lower");
        add(format!("core.grant_ratio.{f}"), "ratio", "higher");
    }
    for p in Part::ALL.map(Part::name) {
        add(format!("core.share.{p}"), "ratio", "lower");
        add(format!("traffic.ns_per_cycle.{p}"), "ns", "lower");
        add(format!("traffic.share.{p}"), "ratio", "lower");
        add(format!("trace.overhead.{p}"), "ratio", "lower");
        add(format!("lab.job_s.p50.{p}"), "s", "lower");
        add(format!("lab.job_s.max.{p}"), "s", "lower");
        add(format!("lab.overhead_s.{p}"), "s", "lower");
        add(format!("lab.parallel_eff.{p}"), "ratio", "higher");
    }
    for p in [Part::Light, Part::Heavy].map(Part::name) {
        for f in &FABRIC_KEYS[..3] {
            add(format!("sim.cycles_per_s.{f}.{p}"), "1/s", "higher");
            add(format!("sim.traced_cycles_per_s.{f}.{p}"), "1/s", "higher");
            add(format!("sim.self_ns_per_cycle.{f}.{p}"), "ns", "lower");
        }
        add(format!("sim.packets_per_cycle.{p}"), "count", "higher");
    }
    for t in [Part::Mesh, Part::Dragonfly].map(Part::name) {
        add(format!("engine.cycles_per_s.{t}"), "1/s", "higher");
        add(format!("engine.traced_cycles_per_s.{t}"), "1/s", "higher");
        add(format!("engine.self_cpu_ns_per_cycle.{t}"), "ns", "lower");
        add(format!("engine.active_frac.{t}"), "ratio", "lower");
        add(format!("engine.shard_speedup.{t}"), "ratio", "higher");
    }
    for c in ["cold", "warm"] {
        add(format!("serve.admit_ms.{c}"), "ms", "lower");
        add(format!("serve.first_record_ms.{c}"), "ms", "lower");
        add(format!("serve.stream_ms.{c}"), "ms", "lower");
    }
    add("serve.requests_per_s".into(), "1/s", "higher");
    add("serve.cold_overhead_ms".into(), "ms", "lower");
    add("serve.cpu_util".into(), "ratio", "higher");
    add("serve.cache_hit_ratio".into(), "ratio", "higher");
    add("serve.rejected".into(), "count", "lower");
    v
}

/// State shared by the parts of one split.
struct Split<'a> {
    seed: u64,
    dir: &'a Path,
    floor: f64,
    out: Outcome,
    spans: Spans,
    values: BTreeMap<String, f64>,
    fabrics: BTreeMap<&'static str, FabricTally>,
}

impl Split<'_> {
    fn set(&mut self, name: String, value: f64) {
        self.values.insert(name, value);
    }

    /// Runs `f`, records it as a span under `parent`, and returns its
    /// result and duration.
    fn timed<R>(&mut self, parent: SpanId, name: String, f: impl FnOnce() -> R) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        self.spans.record(parent, name, start, elapsed);
        (out, elapsed)
    }

    fn equal<T: PartialEq>(&mut self, what: String, a: &T, b: &T) {
        let result = if a == b {
            Ok(())
        } else {
            Err("differs".to_string())
        };
        self.out.check(&what, result);
    }

    /// Runs the part's campaign with `run_to_file` at the workload's
    /// thread count and, if that is more than one, again at one thread;
    /// both files must be identical. Returns the file and both campaign
    /// times.
    fn lab(
        &mut self,
        span: SpanId,
        part: Part,
        spec: &CampaignSpec,
    ) -> Option<(CampaignFile, f64, f64)> {
        let name = part.name();
        let path = self.dir.join(format!("{name}.jsonl"));
        let ((t, file), _) = self.timed(span, "run_to_file".into(), || {
            run_campaign_on(part.threads(), spec, &path)
        });
        let file = self.out.check(&format!("{name} campaign"), file)?;
        if part.threads() == 1 {
            return Some((file, t.as_secs_f64(), t.as_secs_f64()));
        }
        let ((t1, file1), _) = self.timed(span, "run_to_file serial".into(), || {
            run_campaign_on(1, spec, &path)
        });
        let file1 = self.out.check(&format!("{name} serial campaign"), file1)?;
        self.equal(format!("{name} JSONL at 1 thread"), &file1.text, &file.text);
        Some((file, t.as_secs_f64(), t1.as_secs_f64()))
    }

    /// Times every job with a direct `run_job`; its records must equal
    /// the campaign file's. Returns the job times in seconds.
    fn run_jobs(
        &mut self,
        span: SpanId,
        part: Part,
        spec: &CampaignSpec,
        file: &CampaignFile,
    ) -> Vec<f64> {
        let mut times = Vec::new();
        for (job, recorded) in spec.jobs().iter().zip(&file.records) {
            let (line, t) = self.timed(span, format!("run_job {}", job.index), || {
                spec.run_job(job).to_jsonl_line()
            });
            times.push(t.as_secs_f64());
            self.equal(
                format!("{} job {} run_job record", part.name(), job.index),
                &line,
                recorded,
            );
        }
        times
    }

    /// Lab metrics of one part from its job and campaign times.
    fn lab_metrics(&mut self, part: Part, job_s: &[f64], campaign_s: f64, serial_s: f64) {
        let p = part.name();
        let total: f64 = job_s.iter().sum();
        self.set(format!("lab.job_s.p50.{p}"), median(job_s));
        self.set(format!("lab.job_s.max.{p}"), max(job_s));
        self.set(format!("lab.overhead_s.{p}"), serial_s - total);
        self.set(
            format!("lab.parallel_eff.{p}"),
            total / (part.threads() as f64 * campaign_s),
        );
    }

    fn single_switch(&mut self, root: SpanId, part: Part) {
        let spec = part.spec(self.seed);
        let span = self.spans.open(root, part.name());
        let Some((file, campaign_s, serial_s)) = self.lab(span, part, &spec) else {
            return;
        };
        let job_s = self.run_jobs(span, part, &spec, &file);
        self.lab_metrics(part, &job_s, campaign_s, serial_s);

        let mut per_fabric: BTreeMap<&'static str, FabricRuns> = BTreeMap::new();
        for (job, recorded) in spec.jobs().iter().zip(&file.records) {
            let key = fabric_key(&job.fabric);
            let (fabric, traffic) = {
                let runs = per_fabric.entry(key).or_default();
                (runs.fabric.clone(), runs.traffic.clone())
            };
            for rep in 0..REPS {
                let what = format!("{} job {} rep {rep}", part.name(), job.index);
                let mut sim = plain_sim(&spec, job);
                let ((untraced, cycles), t_u) =
                    self.timed(span, format!("{what} untraced"), || {
                        drive(&mut sim, &spec.sim)
                    });
                drop(sim);
                let mut sim = traced_sim(&spec, job, &fabric, &traffic);
                let ((traced, cycles_t), t_t) = self.timed(span, format!("{what} traced"), || {
                    drive(&mut sim, &spec.sim)
                });
                let line = single_switch_line(job, &sim, &traced);
                drop(sim);
                self.equal(format!("{what} traced report"), &traced, &untraced);
                self.equal(format!("{what} traced cycles"), &cycles_t, &cycles);
                self.equal(format!("{what} traced record"), &line, recorded);
                let runs = per_fabric.get_mut(key).expect("inserted above");
                runs.cycles += cycles;
                runs.untraced_s += t_u.as_secs_f64();
                runs.traced_s += t_t.as_secs_f64();
            }
        }
        self.spans.close(span);

        let p = part.name();
        let (mut part_cycles, mut untraced_s, mut traced_s) = (0, 0.0, 0.0);
        let (mut fabric_ns, mut traffic_ns, mut packets) = (0.0, 0.0, 0);
        for (key, runs) in &per_fabric {
            let fabric = read(&runs.fabric);
            let traffic = read(&runs.traffic);
            let own_fabric_ns = fabric.total_ns(self.floor);
            let own_traffic_ns = traffic.next.total_ns(self.floor);
            let cycles = runs.cycles as f64;
            self.set(
                format!("sim.cycles_per_s.{key}.{p}"),
                cycles / runs.untraced_s,
            );
            self.set(
                format!("sim.traced_cycles_per_s.{key}.{p}"),
                cycles / runs.traced_s,
            );
            self.set(
                format!("sim.self_ns_per_cycle.{key}.{p}"),
                (runs.traced_s * 1e9 - own_fabric_ns - own_traffic_ns) / cycles,
            );
            self.fabrics.entry(key).or_default().add(&fabric);
            part_cycles += runs.cycles;
            untraced_s += runs.untraced_s;
            traced_s += runs.traced_s;
            fabric_ns += own_fabric_ns;
            traffic_ns += own_traffic_ns;
            packets += traffic.packets;
        }
        let cycles = part_cycles as f64;
        let traced_ns = traced_s * 1e9;
        self.set(
            format!("sim.packets_per_cycle.{p}"),
            packets as f64 / cycles,
        );
        self.set(format!("core.share.{p}"), fabric_ns / traced_ns);
        self.set(format!("traffic.ns_per_cycle.{p}"), traffic_ns / cycles);
        self.set(format!("traffic.share.{p}"), traffic_ns / traced_ns);
        self.set(format!("trace.overhead.{p}"), traced_s / untraced_s - 1.0);
    }

    fn network(&mut self, root: SpanId, part: Part) {
        let spec = part.spec(self.seed);
        let span = self.spans.open(root, part.name());
        let Some((file, campaign_s, serial_s)) = self.lab(span, part, &spec) else {
            return;
        };
        let job_s = self.run_jobs(span, part, &spec, &file);
        self.lab_metrics(part, &job_s, campaign_s, serial_s);

        let job = &spec.jobs()[0];
        let fabric = sink::<FabricTally>();
        let traffic = sink::<TrafficTally>();
        let (mut sharded, mut single, mut traced) = ((0.0, 0), (0.0, 0), (0.0, 0));
        let mut active = 0;
        let mut nodes = 0;
        for rep in 0..REPS {
            let what = format!("{} rep {rep}", part.name());
            let (two, _) = self.timed(span, format!("{what} {SPLIT_SHARDS} shards"), || {
                run_routed(&spec, job, SPLIT_SHARDS, |f| f, |p| p)
            });
            let (one, _) = self.timed(span, format!("{what} 1 shard"), || {
                run_routed(&spec, job, 1, |f| f, |p| p)
            });
            let (t, _) = self.timed(span, format!("{what} traced"), || {
                run_routed(
                    &spec,
                    job,
                    SPLIT_SHARDS,
                    |f| TracedFabric::new(f, fabric.clone()),
                    |p| Box::new(TracedPattern::new(p, traffic.clone())),
                )
            });
            self.equal(format!("{what} 1-shard report"), &one.report, &two.report);
            self.equal(format!("{what} traced report"), &t.report, &two.report);
            self.equal(format!("{what} traced cycles"), &t.cycles, &two.cycles);
            let line = routed_line(job, &t.report, t.fault_events);
            self.equal(format!("{what} traced record"), &line, &file.records[0]);
            sharded = (sharded.0 + two.secs, sharded.1 + two.cycles);
            single = (single.0 + one.secs, single.1 + one.cycles);
            traced = (traced.0 + t.secs, traced.1 + t.cycles);
            active += two.active;
            nodes = two.nodes;
        }
        self.spans.close(span);

        let p = part.name();
        let fabric = read(&fabric);
        let traffic = read(&traffic);
        let fabric_ns = fabric.total_ns(self.floor);
        let traffic_ns = traffic.next.total_ns(self.floor);
        // Shard-thread time: every shard thread is busy or waiting at a
        // barrier for the whole run.
        let thread_ns = SPLIT_SHARDS as f64 * traced.0 * 1e9;
        self.set(
            format!("engine.cycles_per_s.{p}"),
            sharded.1 as f64 / sharded.0,
        );
        self.set(
            format!("engine.traced_cycles_per_s.{p}"),
            traced.1 as f64 / traced.0,
        );
        self.set(
            format!("engine.self_cpu_ns_per_cycle.{p}"),
            (thread_ns - fabric_ns - traffic_ns) / traced.1 as f64,
        );
        self.set(
            format!("engine.active_frac.{p}"),
            active as f64 / (nodes as f64 * sharded.1 as f64),
        );
        self.set(
            format!("engine.shard_speedup.{p}"),
            (single.0 / single.1 as f64) / (sharded.0 / sharded.1 as f64),
        );
        self.set(format!("core.share.{p}"), fabric_ns / thread_ns);
        self.set(
            format!("traffic.ns_per_cycle.{p}"),
            traffic_ns / traced.1 as f64,
        );
        self.set(format!("traffic.share.{p}"), traffic_ns / thread_ns);
        self.set(
            format!("trace.overhead.{p}"),
            (traced.0 / traced.1 as f64) / (sharded.0 / sharded.1 as f64) - 1.0,
        );
        self.fabrics
            .entry(fabric_key(&job.fabric))
            .or_default()
            .add(&fabric);
    }

    fn serve(&mut self, root: SpanId, duration: Duration) {
        let span = self.spans.open(root, "serve");
        let session = Session::start(&self.dir.join("serve"));
        let Some(mut session) = self.out.check("serve split setup", session) else {
            return;
        };
        let cpu = process_cpu_seconds();
        let (logs, wall) = run_stream(&mut session, self.seed, duration);
        let cpu = process_cpu_seconds() - cpu;
        let stats = session.stats();
        session.stop(logs.iter().all(|l| l.error.is_none()));
        for log in &logs {
            let class = if log.cold { "cold" } else { "warm" };
            self.spans.record(
                span,
                format!("{class} request c{}-{}", log.conn, log.n),
                log.start,
                log.latency(),
            );
        }
        verify(&logs, self.seed, &mut self.out);

        // The same cold campaigns run directly, their jobs spread over
        // as many threads as the server has workers.
        let mut direct_ms = Vec::new();
        for log in logs.iter().filter(|l| l.cold && l.error.is_none()) {
            let spec = serve_campaign(self.seed, log.conn, log.n);
            let (_, t) = self.timed(span, format!("direct c{}-{}", log.conn, log.n), || {
                run_jobs_on_threads(&spec, SERVER_WORKERS)
            });
            direct_ms.push(t.as_secs_f64() * 1e3);
        }
        self.spans.close(span);

        for (class, cold) in [("cold", true), ("warm", false)] {
            let phases: [(&str, Phase); 3] = [
                ("admit_ms", |l| l.admit),
                ("first_record_ms", |l| l.first_record),
                ("stream_ms", |l| l.stream),
            ];
            for (name, phase) in phases {
                let samples = latencies_ms(&logs, cold, phase);
                if !samples.is_empty() {
                    self.set(format!("serve.{name}.{class}"), median(&samples));
                }
            }
        }
        let cold = latencies_ms(&logs, true, RequestLog::latency);
        if !cold.is_empty() && !direct_ms.is_empty() {
            self.set(
                "serve.cold_overhead_ms".into(),
                median(&cold) - median(&direct_ms),
            );
        }
        let done = logs.iter().filter(|l| l.error.is_none()).count();
        self.set("serve.requests_per_s".into(), done as f64 / wall);
        self.set("serve.cpu_util".into(), cpu / wall);
        let lookups = stats.cache_hits + stats.cache_misses;
        self.set(
            "serve.cache_hit_ratio".into(),
            stats.cache_hits as f64 / lookups.max(1) as f64,
        );
        self.set("serve.rejected".into(), stats.rejected as f64);
    }
}

/// Cycles, untraced and traced seconds, and wrapper totals of one
/// fabric's runs within a part.
#[derive(Default)]
struct FabricRuns {
    cycles: u64,
    untraced_s: f64,
    traced_s: f64,
    fabric: Sink<FabricTally>,
    traffic: Sink<TrafficTally>,
}

/// The job's single-switch simulator, as the lab builds it.
fn plain_sim(
    spec: &CampaignSpec,
    job: &Job,
) -> NetworkSim<Box<dyn Fabric>, Box<dyn TrafficPattern>> {
    let radix = job.fabric.radix();
    let mut fabric = job.fabric.build();
    job.fault.apply(&mut fabric, job.seed);
    NetworkSim::new(
        fabric,
        job.pattern.build(radix),
        spec.sim.to_sim_config(radix, job.load, job.seed),
    )
}

type TracedSim = NetworkSim<TracedFabric<Box<dyn Fabric>>, TracedPattern<Box<dyn TrafficPattern>>>;

/// [`plain_sim`] with its fabric and pattern wrapped.
fn traced_sim(
    spec: &CampaignSpec,
    job: &Job,
    fabric: &Sink<FabricTally>,
    traffic: &Sink<TrafficTally>,
) -> TracedSim {
    let radix = job.fabric.radix();
    let mut wrapped = TracedFabric::new(job.fabric.build(), fabric.clone());
    job.fault.apply(&mut wrapped, job.seed);
    NetworkSim::new(
        wrapped,
        TracedPattern::new(job.pattern.build(radix), traffic.clone()),
        spec.sim.to_sim_config(radix, job.load, job.seed),
    )
}

/// Runs warmup and measurement, then drains as `NetworkSim::run` does,
/// through `run_cycles`. Returns the report and the cycles simulated.
fn drive<F: Fabric, T: TrafficPattern>(
    sim: &mut NetworkSim<F, T>,
    params: &SimParams,
) -> (SimReport, u64) {
    let mut report = sim.report();
    sim.run_cycles(&mut report, params.warmup + params.measure);
    let mut drained = 0;
    while report.completed_measured() < report.injected_measured() && drained < params.drain {
        sim.run_cycles(&mut report, 1);
        drained += 1;
    }
    (report, sim.now())
}

/// One sharded run.
struct RoutedRun {
    report: MeshReport,
    secs: f64,
    cycles: u64,
    active: u64,
    fault_events: u64,
    nodes: usize,
}

fn drive_sharded<F: Fabric, T: ShardTopology>(mut sim: ShardedSim<F, T>) -> RoutedRun {
    let start = Instant::now();
    let report = sim.run();
    let secs = start.elapsed().as_secs_f64();
    RoutedRun {
        report,
        secs,
        cycles: sim.now(),
        active: sim.active_node_cycles(),
        fault_events: sim.fault_event_count(),
        nodes: sim.topology().nodes(),
    }
}

/// A network job's topology.
pub enum Geometry {
    /// A 2D mesh.
    Mesh(MeshGeometry),
    /// A dragonfly.
    Dragonfly(DragonflyGeometry),
}

/// Builds the geometry of a mesh or dragonfly `job` exactly as the lab
/// does, dead wafer links included; an error for a dragonfly that
/// cannot be built or routed, or for a single-switch campaign.
pub fn geometry(spec: &CampaignSpec, job: &Job) -> Result<Geometry, String> {
    let radix = job.fabric.radix();
    match &spec.topology {
        Topology::Mesh {
            cols,
            rows,
            ports_per_direction,
            layer_aware,
        } => {
            let map = match layer_aware {
                Some(layers) => MeshPortMap::LayerAware { layers: *layers },
                None => MeshPortMap::Contiguous,
            };
            Ok(Geometry::Mesh(MeshGeometry::new(
                *cols,
                *rows,
                *ports_per_direction,
                radix,
                map,
            )))
        }
        Topology::Dragonfly {
            routers_per_group,
            endpoints_per_router,
            global_per_router,
            groups,
            palmtree,
        } => {
            let dcfg = DragonflyConfig::new(
                *routers_per_group,
                *endpoints_per_router,
                *global_per_router,
                *groups,
            )
            .map(if *palmtree {
                GlobalLinkMap::Palmtree
            } else {
                GlobalLinkMap::Consecutive
            });
            let dead = sample_dead_links(
                *groups,
                job.fault.dead_tsvs,
                derive_seed(job.seed ^ 0xFA17_BA5E_D00D_F00D, job.fault.salt),
            );
            DragonflyGeometry::new(dcfg, radix, &dead)
                .map(Geometry::Dragonfly)
                .map_err(|e| e.to_string())
        }
        Topology::SingleSwitch => Err("not a network campaign".to_string()),
    }
}

/// Builds the job's mesh or dragonfly through `ShardedSim::new` with
/// the geometry, configuration, per-node fault plan and traffic the
/// lab uses, wrapping each fabric with `wrap` and each shard's pattern
/// with `pattern`, and runs it.
fn run_routed<F: Fabric>(
    spec: &CampaignSpec,
    job: &Job,
    shards: usize,
    mut wrap: impl FnMut(Box<dyn Fabric>) -> F,
    mut pattern: impl FnMut(Box<dyn TrafficPattern>) -> Box<dyn TrafficPattern>,
) -> RoutedRun {
    let mut cfg = ShardedConfig::new()
        .injection_rate(job.load)
        .warmup(spec.sim.warmup)
        .measure(spec.sim.measure)
        .drain(spec.sim.drain)
        .seed(job.seed);
    cfg.packet_len_flits = spec.sim.packet_len_flits;
    let geo = geometry(spec, job).expect("network part with a routable topology");
    // As in the lab: a dragonfly's dead-TSV count went into dead wafer
    // links, and only it takes the campaign's VC count.
    let fault = match &geo {
        Geometry::Mesh(_) => job.fault.clone(),
        Geometry::Dragonfly(_) => {
            cfg.vcs = spec.sim.vcs;
            FaultSpec {
                dead_tsvs: 0,
                ..job.fault.clone()
            }
        }
    };
    let make_switch = |node: usize| {
        let mut f = wrap(job.fabric.build());
        fault.apply(&mut f, derive_seed(job.seed, node as u64));
        f
    };
    match geo {
        Geometry::Mesh(geo) => {
            let endpoints = geo.total_endpoints();
            drive_sharded(ShardedSim::new(geo, cfg, shards, make_switch, || {
                pattern(job.pattern.build(endpoints))
            }))
        }
        Geometry::Dragonfly(geo) => {
            let endpoints = geo.total_endpoints();
            drive_sharded(ShardedSim::new(geo, cfg, shards, make_switch, || {
                pattern(job.pattern.build(endpoints))
            }))
        }
    }
}

/// Runs every job of `spec` with `run_job`, spread round-robin over
/// `threads` threads.
fn run_jobs_on_threads(spec: &CampaignSpec, threads: usize) {
    let jobs = spec.jobs();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let jobs = &jobs;
            scope.spawn(move || {
                for job in jobs.iter().skip(t).step_by(threads) {
                    spec.run_job(job);
                }
            });
        }
    });
}

/// Runs the layer split and reports every per-layer metric. The serve
/// part streams requests for `serve_seconds`.
pub fn run(seed: u64, serve_seconds: u64, dir: &Path, spans_path: &Path) -> Outcome {
    let _ = std::fs::remove_dir_all(dir);
    let mut split = Split {
        seed,
        dir,
        floor: timer_floor_ns(),
        out: Outcome::default(),
        spans: Spans::new(),
        values: BTreeMap::new(),
        fabrics: BTreeMap::new(),
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        split.out.check("split setup", Err::<(), _>(e.to_string()));
        return split.out;
    }
    let root = split.spans.open(0, "layer-split");
    for part in [Part::Light, Part::Heavy] {
        split.single_switch(root, part);
    }
    for part in [Part::Mesh, Part::Dragonfly] {
        split.network(root, part);
    }
    split.serve(root, Duration::from_secs(serve_seconds));
    split.spans.close(root);

    let floor = split.floor;
    for (key, tally) in std::mem::take(&mut split.fabrics) {
        split.set(
            format!("core.arbitrate_ns.{key}"),
            tally.arbitrate.mean_ns(floor),
        );
        split.set(
            format!("core.release_ns.{key}"),
            tally.release.mean_ns(floor),
        );
        split.set(
            format!("core.grant_ratio.{key}"),
            tally.grants as f64 / tally.requests.max(1) as f64,
        );
    }

    let mut out = split.out;
    out.note(format!(
        "timer floor {floor:.1} ns per timed call (subtracted); sampling 1 in {}/{}/{} arbitrate/release/traffic calls",
        crate::trace::ARBITRATE_EVERY,
        crate::trace::RELEASE_EVERY,
        crate::trace::TRAFFIC_EVERY
    ));
    match std::fs::write(spans_path, split.spans.to_jsonl()) {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            split.spans.len(),
            spans_path.display()
        )),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    for (name, unit, _) in per_layer_metrics() {
        match split.values.get(&name) {
            Some(&value) => out.metric(name, value, unit),
            None => {
                out.check(&name, Err::<(), _>("not measured".into()));
            }
        }
    }
    out
}
