//! The serving benchmark: two workloads against the `qgx` binary over
//! loopback, every answer checked, plus a traced run that times each
//! layer's public function from outside. See README.md.
//!
//! ```text
//! perfbench --qgx <path> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod check;
mod http;
mod load;
mod pool;
mod procs;
mod stats;
mod trace;

use pool::{Draws, Mix};
use querygraph_core::config::ExperimentConfig;
use querygraph_core::service::ServingWorld;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Retrieval depth every workload serves.
pub const TOP_K: usize = 10;
/// The cycle expander's feature cap.
pub const MAX_FEATURES: usize = 10;
/// Distinct queries in each workload's pool.
pub const POOL: usize = 3000;
/// Open-loop arrival rate, requests per second.
pub const RATE: f64 = 100.0;
/// Open-loop arrivals per round (1.5 s at [`RATE`]).
pub const OPEN_PER_ROUND: usize = 150;
/// Closed-loop seconds per round.
pub const CLOSED_PER_ROUND_S: f64 = 0.5;

/// One workload: a tier, how it is served, and how it is driven.
pub struct Workload {
    pub name: &'static str,
    /// The stress tier, written from an XML dump by `qgx ingest` into a
    /// segment store and served over two shard processes; otherwise the
    /// seed tier, cold-booted into an empty index cache.
    pub segstore: bool,
    pub mix: Mix,
    /// Expansion-cache capacity (0 = off).
    pub cache: usize,
    /// Warm-up requests before the timed phases.
    pub warmup: usize,
    /// Served responses checked against the reference per run.
    pub checks: usize,
    /// Queries timed layer by layer in the traced run.
    pub traced: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "seed_cycles",
        segstore: false,
        mix: Mix::Uniform,
        cache: 0,
        warmup: 300,
        checks: 300,
        traced: 120,
    },
    Workload {
        name: "stress_ingest_zipf",
        segstore: true,
        mix: Mix::Zipf(0.8),
        cache: 128,
        warmup: 600,
        checks: 200,
        traced: 40,
    },
];

impl Workload {
    pub fn config(&self) -> ExperimentConfig {
        if self.segstore {
            ExperimentConfig::stress()
        } else {
            ExperimentConfig::default_paper()
        }
    }

    /// The `qgx` tier flags.
    pub fn tier_flags(&self) -> Vec<String> {
        if self.segstore {
            vec!["--stress".to_string()]
        } else {
            Vec::new()
        }
    }

    /// `qgx serve` flags (the listen address is added at launch).
    pub fn serve_flags(&self, artifacts: &Path) -> Vec<String> {
        let mut flags = self.tier_flags();
        let dir = artifacts.display().to_string();
        if self.segstore {
            flags.extend(["--segstore".into(), dir, "--shard-procs".into(), "2".into()]);
        } else {
            flags.extend(["--index-cache".into(), dir]);
        }
        if self.cache > 0 {
            flags.extend(["--expansion-cache".into(), self.cache.to_string()]);
        }
        flags.extend(
            [
                "--top-k",
                "10",
                "--workers",
                "2",
                "--keep-alive",
                "1000000000",
            ]
            .map(String::from),
        );
        flags
    }
}

/// Rounds in a run of `seconds`: each round is an open-loop window of
/// [`OPEN_PER_ROUND`] arrivals followed by a closed-loop window of
/// [`CLOSED_PER_ROUND_S`].
pub fn rounds(seconds: f64) -> usize {
    let round_s = OPEN_PER_ROUND as f64 / RATE + CLOSED_PER_ROUND_S;
    ((seconds / round_s).floor() as usize).max(2)
}

/// Independent sub-seeds of the run seed, one per input stream.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

pub struct Args {
    pub qgx: PathBuf,
    pub workdir: PathBuf,
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        get(flag)
            .unwrap_or_else(|| default.to_string())
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds", "10")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        qgx: PathBuf::from(get("--qgx").ok_or("--qgx is required")?),
        workdir: PathBuf::from(get("--workdir").unwrap_or_else(|| ".perfbench".to_string())),
        workload,
        seed: number("--seed", "1")? as u64,
        seconds,
        trace: number("--trace", "0")? != 0.0,
    })
}

/// What a run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A scratch directory for one run, removed when dropped.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(workdir: &Path, label: &str) -> Result<RunDir, String> {
        let dir = workdir.join(format!("run-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The pool and its request bodies, after checking that every query
/// links to at least one entity.
pub fn pool_for(
    reference: &check::Reference<'_>,
    seed: u64,
) -> Result<(Vec<String>, Vec<Vec<u8>>), String> {
    let pool = pool::build_pool(reference.exact.kb(), POOL, sub_seed(seed, 1));
    if let Some(q) = pool.iter().find(|q| !reference.links(q)) {
        return Err(format!("pool query {q:?} links to no entity"));
    }
    let bodies = pool.iter().map(|q| http::expand_body(q)).collect();
    Ok((pool, bodies))
}

/// Hypervisor steal as a share of the machine's CPU ticks between two
/// readings; 0 where `/proc/stat` cannot be read.
fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => 0.0,
    }
}

/// One timed window, the hypervisor steal while it ran, and the CPU
/// seconds the serving processes used in it.
struct Window {
    steal: f64,
    cpu_s: f64,
    phase: load::Phase,
}

/// The `keep` windows with the least steal (ties in run order), each
/// with its CPU seconds, and the highest steal among them.
fn cleanest(windows: &[Window], keep: usize) -> (Vec<(&load::Phase, f64)>, f64) {
    let mut order: Vec<&Window> = windows.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    order.truncate(keep);
    let worst = order.iter().map(|w| w.steal).fold(0.0, f64::max);
    (
        order.into_iter().map(|w| (&w.phase, w.cpu_s)).collect(),
        worst,
    )
}

fn run_end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let run = RunDir::create(&args.workdir, w.name)?;
    let artifacts = run.0.join("artifacts");

    // Inputs and the reference first: nothing below is timed yet.
    let world = ServingWorld::open(&w.config(), None);
    let mut reference = check::Reference::new(&world.wiki.kb, &world.engine, TOP_K, MAX_FEATURES);
    let (pool, bodies) = pool_for(&reference, args.seed)?;
    let n_rounds = rounds(args.seconds);
    let warm_draws = Draws::new(pool.len(), w.mix, sub_seed(args.seed, 2)).take(w.warmup);
    let open_draws =
        Draws::new(pool.len(), w.mix, sub_seed(args.seed, 3)).take(n_rounds * OPEN_PER_ROUND);
    let mut gaps = pool::Rng::new(sub_seed(args.seed, 4));
    // Arrival times from the start of each round's open-loop window.
    let arrivals: Vec<f64> = (0..n_rounds)
        .flat_map(|_| {
            let mut t = 0.0;
            (0..OPEN_PER_ROUND)
                .map(|_| {
                    t += gaps.exp(RATE);
                    t
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let closed_draws = Draws::new(pool.len(), w.mix, sub_seed(args.seed, 5)).take(1 << 16);
    let dump = run.0.join("corpus.xml");
    if w.segstore {
        let mut flags = vec![
            "dump".to_string(),
            "--out".into(),
            dump.display().to_string(),
        ];
        flags.extend(w.tier_flags());
        procs::run_step(&args.qgx, &flags, &run.0.join("dump.log"))?;
    }

    // Set-up: every program step from launch to the first healthy answer.
    let t_setup = Instant::now();
    if w.segstore {
        let docs = world.engine.num_docs();
        let mut flags = vec![
            "ingest".to_string(),
            "--dump".into(),
            dump.display().to_string(),
            "--segstore".into(),
            artifacts.display().to_string(),
            "--batch-docs".into(),
            docs.div_ceil(2).to_string(),
        ];
        flags.extend(w.tier_flags());
        procs::run_step(&args.qgx, &flags, &run.0.join("ingest.log"))?;
    }
    let mut server = procs::Server::spawn(
        &args.qgx,
        &w.serve_flags(&artifacts),
        &run.0.join("serve.log"),
    )?;
    let healthy = server.wait_healthy(Duration::from_secs(150));
    let setup_s = t_setup.elapsed().as_secs_f64();
    if let Err(e) = healthy {
        server.stop();
        return Err(e);
    }

    // Timed rounds: an open-loop window, then a closed-loop window,
    // each with the hypervisor steal measured across it.
    let measured = (|| -> Result<_, String> {
        let served_before = http::queries_served(&server.addr)?;
        let warm = load::warm_up(&server.addr, &bodies, &warm_draws);
        let tree = server.tree();
        let mut opens = Vec::with_capacity(n_rounds);
        let mut closeds = Vec::with_capacity(n_rounds);
        let mut closed_next = 0;
        for round in 0..n_rounds {
            let span = round * OPEN_PER_ROUND..(round + 1) * OPEN_PER_ROUND;
            let (t0, c0) = (procs::cpu_ticks(), procs::cpu_s(&tree));
            let open = load::open_loop(
                &server.addr,
                &bodies,
                &open_draws[span.clone()],
                &arrivals[span],
                round,
            );
            let (t1, c1) = (procs::cpu_ticks(), procs::cpu_s(&tree));
            let closed = load::closed_loop(
                &server.addr,
                &bodies,
                &closed_draws,
                closed_next,
                Duration::from_secs_f64(CLOSED_PER_ROUND_S),
                round,
            );
            let (t2, c2) = (procs::cpu_ticks(), procs::cpu_s(&tree));
            closed_next += closed.attempted();
            opens.push(Window {
                steal: steal_share(t0, t1),
                cpu_s: c1 - c0,
                phase: open,
            });
            closeds.push(Window {
                steal: steal_share(t1, t2),
                cpu_s: c2 - c1,
                phase: closed,
            });
        }
        let served_after = http::queries_served(&server.addr)?;
        Ok((served_before, warm, opens, closeds, served_after))
    })();
    let rss_mb = server.tree_peak_rss_mb();
    server.stop();
    let (served_before, warm, opens, closeds, served_after) = measured?;
    let disk_mb = procs::dir_mb(&artifacts);

    let phases: Vec<&load::Phase> = std::iter::once(&warm)
        .chain(opens.iter().map(|w| &w.phase))
        .chain(closeds.iter().map(|w| &w.phase))
        .collect();
    let mut problems: Vec<String> = Vec::new();
    for name in ["warmup", "open", "closed"] {
        let of: Vec<&&load::Phase> = phases.iter().filter(|p| p.name == name).collect();
        eprintln!(
            "# {} {name}: attempted {} failed {} in {:.3}s over {} window(s), {} connection(s)",
            w.name,
            of.iter().map(|p| p.attempted()).sum::<usize>(),
            of.iter().map(|p| p.failed()).sum::<usize>(),
            of.iter().map(|p| p.elapsed_s).sum::<f64>(),
            of.len(),
            of.iter().map(|p| p.connects).sum::<u64>(),
        );
    }
    let client_ok: usize = phases.iter().map(|p| p.ok()).sum();
    let server_ok = served_after - served_before;
    if client_ok as u64 != server_ok {
        problems.push(format!(
            "client counted {client_ok} successful /expand requests, /statz counted {server_ok}"
        ));
    }

    // Correctness: an evenly spaced sample of every phase's answers.
    let answered: Vec<&load::Record> = phases
        .iter()
        .flat_map(|p| p.records.iter())
        .filter(|r| r.status == 200)
        .collect();
    let step = (answered.len() / w.checks.max(1)).max(1);
    let t_check = Instant::now();
    let mut checked = 0;
    for record in answered.iter().step_by(step).take(w.checks) {
        checked += 1;
        if let Err(e) = reference.check(&pool[record.query], &record.body) {
            problems.push(format!("query {:?}: {e}", pool[record.query]));
            if problems.len() > 5 {
                break;
            }
        }
    }
    eprintln!(
        "# {}: checked {checked} served bodies ({} distinct queries) in {:.2}s",
        w.name,
        reference.checked_queries(),
        t_check.elapsed().as_secs_f64()
    );
    let steal_of: Vec<(&load::Phase, f64)> = std::iter::once((&warm, 0.0))
        .chain(opens.iter().chain(&closeds).map(|w| (&w.phase, w.steal)))
        .collect();
    write_samples(&args.workdir, w.name, &steal_of)?;

    // The figures come from the half of each kind of window with the
    // least steal: time the host gave to other guests is not the
    // program's, and it arrives in bursts.
    let keep = n_rounds.div_ceil(2);
    let (open_kept, open_worst) = cleanest(&opens, keep);
    let (closed_kept, closed_worst) = cleanest(&closeds, keep);
    let steals =
        |ws: &[Window]| stats::sorted(&ws.iter().map(|w| 100.0 * w.steal).collect::<Vec<_>>());
    let (open_steal, closed_steal) = (steals(&opens), steals(&closeds));
    eprintln!(
        "# {}: steal per open window median {:.1}% max {:.1}%, kept {keep} of {n_rounds} at <= {:.1}%; \
         per closed window median {:.1}% max {:.1}%, kept {keep} at <= {:.1}%",
        w.name,
        stats::median(&open_steal),
        open_steal.last().copied().unwrap_or(0.0),
        100.0 * open_worst,
        stats::median(&closed_steal),
        closed_steal.last().copied().unwrap_or(0.0),
        100.0 * closed_worst,
    );
    let latencies = stats::sorted(
        &open_kept
            .iter()
            .flat_map(|(p, _)| p.latencies_ms())
            .collect::<Vec<_>>(),
    );
    let late = stats::sorted(
        &opens
            .iter()
            .flat_map(|w| w.phase.records.iter().map(|r| r.late_s * 1e3))
            .collect::<Vec<_>>(),
    );
    eprintln!(
        "# {} open loop at {RATE}/s: {} samples kept, {} beyond p99; generator lateness \
         (all windows) p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        w.name,
        latencies.len(),
        latencies.len() - (0.99 * latencies.len() as f64).ceil() as usize,
        stats::median(&late),
        stats::quantile(&late, 0.99),
        late.last().copied().unwrap_or(0.0),
    );
    for p in &problems {
        eprintln!("# CHECK FAILED: {p}");
    }
    let closed_ok: usize = closed_kept.iter().map(|(p, _)| p.ok()).sum();
    let closed_s: f64 = closed_kept.iter().map(|(p, _)| p.elapsed_s).sum();
    let closed_cpu_s: f64 = closed_kept.iter().map(|(_, cpu_s)| cpu_s).sum();
    let open_cpu_s: f64 = open_kept.iter().map(|(_, cpu_s)| cpu_s).sum();
    let open_ok: usize = open_kept.iter().map(|(p, _)| p.ok()).sum();
    // Wall-clock figures, printed but not reported: on a shared host
    // they follow the other guests (see README.md).
    eprintln!(
        "# {} (kept windows, not reported): open loop p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; \
         closed loop {:.1} requests/s; CPU per /expand in open windows {:.4} ms",
        w.name,
        stats::median(&latencies),
        stats::quantile(&latencies, 0.9),
        stats::quantile(&latencies, 0.99),
        closed_ok as f64 / closed_s,
        1e3 * open_cpu_s / open_ok.max(1) as f64,
    );
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: phases.iter().map(|p| p.attempted()).sum(),
        failed: phases.iter().map(|p| p.failed()).sum(),
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("cpu_ms", 1e3 * closed_cpu_s / closed_ok.max(1) as f64, "ms"),
            ("rss_mb", rss_mb, "MiB"),
            ("disk_mb", disk_mb, "MiB"),
        ],
    })
}

/// The run's raw per-request samples, one line each, with the steal of
/// the window each belongs to, to `<workdir>/samples/<workload>.tsv`
/// (the latest run of each workload).
fn write_samples(
    workdir: &Path,
    name: &str,
    windows: &[(&load::Phase, f64)],
) -> Result<(), String> {
    let dir = workdir.join("samples");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = String::from("phase\tround\tsteal\tseq\tquery\tstatus\tlatency_ms\tlate_ms\n");
    for (p, steal) in windows {
        for r in &p.records {
            out.push_str(&format!(
                "{}\t{}\t{:.4}\t{}\t{}\t{}\t{:.4}\t{:.4}\n",
                p.name,
                p.round,
                steal,
                r.seq,
                r.query,
                r.status,
                r.latency_s * 1e3,
                r.late_s * 1e3
            ));
        }
    }
    let path = dir.join(format!("{name}.tsv"));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        trace::run(&args)
    } else {
        run_end_to_end(&args)
    };
    match outcome {
        Ok(outcome) => println!("{}", outcome.json()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
