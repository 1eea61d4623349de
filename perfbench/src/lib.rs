//! Long-run serving benchmark of `pdm-service`.
//!
//! One run serves one workload for a fixed time through the service's
//! public API — one process, one driver thread, one drain worker — and
//! checks every answer.  An untraced run (`--trace 0`)
//! reports the end-to-end metrics; a traced run (`--trace 1`) of the same
//! workload and seed reports per-layer metrics by timing each call into
//! each layer from this crate, never from inside the service.  See
//! `perfbench/README.md` for the workloads, metrics and predictions.

#![forbid(unsafe_code)]

pub mod driver;
pub mod replay;
pub mod workload;

use driver::{queue_capacity, Driver};
use pdm_linalg::Json;
use pdm_service::{MarketService, Response, ServiceConfig, ShardMetrics, TenantId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use workload::{Inputs, Scale, Spec};

/// Rounds of an untraced run, each a closed-loop phase, an open-loop phase
/// and one timed setup and restore, about a second and a half each at full
/// length.  Every part thus samples the whole run, its machine noise and
/// the service's growing age alike, and every figure pools all rounds.
const ROUNDS: usize = 15;
/// Share of the measured seconds spent in the closed loop; the open loop
/// takes the rest, since its tail percentile needs the longer sample.
const CLOSED_SHARE: f64 = 0.4;
/// Slices of the traced run's closed loop, alternately untraced and traced;
/// at full length each holds several checkpoint and scrape barriers.
const TRACE_SLICES: f64 = 10.0;
/// Seconds of the durable probe that measures layers a workload lacks.
const PROBE_S: f64 = 0.6;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measured traffic.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Workload scale.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests shed or failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (provenance, samples, reconciliation).
    pub notes: Vec<String>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => 0.5 * (values[n / 2 - 1] + values[n / 2]),
    }
}

/// The mean of the middle half of `sorted`.  Machine noise makes call
/// times bimodal, a quiet level and a contended one; unlike the median this
/// moves smoothly with the share of calls at each level, and unlike the
/// mean one stalled call cannot set it.
fn interquartile_mean(sorted: &[f64]) -> f64 {
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Values with four decimals, for the notes.
fn list(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    cells.join(" ")
}

fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

/// Times one call of `work`, adding its seconds to `times`.
fn time_call<T>(
    times: &mut Vec<f64>,
    work: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let started = Instant::now();
    let result = work()?;
    times.push(secs(started.elapsed()));
    Ok(result)
}

/// Quartiles and extremes of sorted call times in ms, for the notes.
fn call_summary(name: &str, sorted: &[f64]) -> String {
    let at = |q: f64| percentile(sorted, q) * 1e3;
    format!(
        "{name}: {} calls, ms min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        sorted.len(),
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// Builds the workload's service and registers every tenant.
///
/// # Errors
/// A service configuration or registration error.
pub fn build(spec: &Spec) -> Result<MarketService, String> {
    let mut service = MarketService::new(ServiceConfig {
        shards: spec.shards,
        queue_capacity: queue_capacity(spec),
        resident_capacity: spec.resident_cap,
        wal_segment_size: spec.wal_segment,
        ledger_paging: spec.resident_cap.is_some(),
        ..ServiceConfig::default()
    })
    .map_err(|e| format!("service config: {e}"))?;
    for id in 0..spec.tenants() {
        service
            .register_tenant(TenantId(id as u64), spec.tenant_config(spec.kind(id)))
            .map_err(|e| format!("register tenant-{id}: {e}"))?;
    }
    Ok(service)
}

/// Everything before the first query is due: the built service and, with
/// the WAL on, its base snapshot rendered to bytes.
fn setup(spec: &Spec) -> Result<MarketService, String> {
    let built = build(spec)?;
    if spec.wal_segment.is_some() {
        let base = built
            .snapshot()
            .map_err(|e| format!("base snapshot: {e}"))?;
        std::hint::black_box(base.render());
    }
    Ok(built)
}

/// Takes one WAL checkpoint and writes it to its serialised form; returns
/// the segment count and bytes, keeping the documents when `keep` is given.
fn checkpoint(
    service: &MarketService,
    keep: Option<&mut Vec<Json>>,
) -> Result<(usize, usize), String> {
    let segments = service
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let bytes = segments.iter().map(|segment| segment.render().len()).sum();
    let count = segments.len();
    if let Some(keep) = keep {
        keep.extend(segments);
    }
    Ok((count, bytes))
}

/// Time and count of one kind of periodic or per-wave work.
#[derive(Debug, Clone, Copy, Default)]
struct Busy {
    time: Duration,
    calls: u64,
    units: u64,
    bytes: u64,
}

impl Busy {
    fn add(&mut self, time: Duration, units: u64, bytes: u64) {
        self.time += time;
        self.calls += 1;
        self.units += units;
        self.bytes += bytes;
    }

    fn per_call(&self, unit: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            secs(self.time) * unit / self.calls as f64
        }
    }
}

/// What a closed-loop phase observed.  The busy counters cover only the
/// traced slices of a traced run; an untraced run times no single call.
#[derive(Debug, Default)]
struct Closed {
    /// Waves served.
    waves: u64,
    /// Quotes answered.
    quotes: u64,
    /// Wall seconds, barriers included.
    seconds: f64,
    drain: Busy,
    checkpoint: Busy,
    scrape: Busy,
    /// `(traced, seconds, quotes)` of each slice of a traced run.
    slices: Vec<(bool, f64, u64)>,
}

/// Runs the periodic barriers that are due: a checkpoint (every round
/// closed first) and a metrics scrape.
fn periodic(
    service: &mut MarketService,
    driver: &mut Driver<'_>,
    closed: &mut Closed,
    (checkpoint_due, scrape_due): (bool, bool),
) -> Result<(), String> {
    let traced = driver.tracing;
    if checkpoint_due {
        let drained = driver.settle(service)?;
        let started = Instant::now();
        let (segments, bytes) = checkpoint(service, None)?;
        if traced {
            closed
                .drain
                .add(drained, driver.last_responses().len() as u64, 0);
            closed
                .checkpoint
                .add(started.elapsed(), segments as u64, bytes as u64);
        }
    }
    if scrape_due {
        let started = Instant::now();
        let text = service.scrape().render_prometheus();
        if traced {
            closed.scrape.add(started.elapsed(), 1, text.len() as u64);
        }
        std::hint::black_box(text);
    }
    Ok(())
}

/// Which periodic barriers fall due after `wave` waves.
fn due(spec: &Spec, wave: u64) -> (bool, bool) {
    (
        spec.checkpoint_every > 0 && wave.is_multiple_of(spec.checkpoint_every as u64),
        wave.is_multiple_of(spec.scrape_every as u64),
    )
}

/// Serves closed-loop waves back to back for `seconds`, then on to the end
/// of a barrier period, and at least through the regret window.  Each phase
/// thus starts and ends on a period boundary and holds every barrier a whole
/// number of times.  With `trace`, every other slice is traced: its calls
/// are timed and its responses flagged for the layer replay.
fn closed_loop(
    spec: &Spec,
    service: &mut MarketService,
    driver: &mut Driver<'_>,
    wave: &mut u64,
    seconds: f64,
    trace: bool,
) -> Result<Closed, String> {
    let start_quotes = driver.tally.quotes;
    let first_wave = *wave;
    let period = spec.barrier_period();
    let mut closed = Closed::default();
    let started = Instant::now();
    let mut slice = (0usize, 0.0f64, start_quotes);
    let slice_s = seconds / TRACE_SLICES;
    driver.tracing = false;
    loop {
        let now = secs(started.elapsed());
        if now >= seconds && *wave > spec.regret_waves as u64 && wave.is_multiple_of(period) {
            break;
        }
        if trace {
            let index = (now / slice_s) as usize;
            if index != slice.0 {
                closed
                    .slices
                    .push((driver.tracing, now - slice.1, driver.tally.quotes - slice.2));
                slice = (index, now, driver.tally.quotes);
                driver.tracing = index % 2 == 1;
            }
        }
        driver.issue_wave(service, *wave)?;
        let drained = driver.drain(service)?;
        if driver.tracing {
            closed
                .drain
                .add(drained, driver.last_responses().len() as u64, 0);
        }
        *wave += 1;
        periodic(service, driver, &mut closed, due(spec, *wave))?;
    }
    driver.tracing = false;
    closed.waves = *wave - first_wave;
    closed.quotes = driver.tally.quotes - start_quotes;
    closed.seconds = secs(started.elapsed());
    Ok(closed)
}

/// Open-loop latency figures of one phase.
struct Open {
    /// Answered quotes' latencies in us, sorted.
    latencies: Vec<f64>,
    /// Driver lateness of every issued quote in us.
    lateness: Vec<f64>,
}

/// Serves arrivals at the fixed rate `spec.open_rate` for about `seconds`:
/// one every `1 / rate` seconds, each for the next tenant of the wave
/// schedule.  The phase lasts a whole number of barrier periods (at least
/// one), with each barrier half a period away from the phase's edges, so
/// every phase waits out the same barriers.  An arrival is held while its
/// tenant's previous quote is unanswered, and its latency runs from its due
/// time to the return of the drain that answered it.  (Poisson gaps put the
/// median on the knee between quotes that wait behind another tenant's
/// outcome and quotes that do not.)
fn open_loop(
    spec: &Spec,
    service: &mut MarketService,
    driver: &mut Driver<'_>,
    wave: &mut u64,
    seconds: f64,
) -> Result<Open, String> {
    let gap = 1.0 / spec.open_rate;
    let first_wave = *wave;
    let period = spec.barrier_period();
    let period_s = (first_wave..first_wave + period)
        .map(|w| driver.senders(w).len())
        .sum::<usize>() as f64
        * gap;
    let periods = ((seconds / period_s).floor() as u64).max(1);
    let end_wave = first_wave + periods * period;
    let mut next_due = 0.0;
    let mut latencies: Vec<f64> = Vec::new();
    let mut lateness: Vec<f64> = Vec::new();
    let mut held: VecDeque<(f64, usize)> = VecDeque::new();
    let mut held_count = vec![0u32; spec.tenants()];
    let mut position = 0usize;
    let half = |every: usize| first_wave + (every as u64 / 2).max(1);
    let mut next_checkpoint = half(spec.checkpoint_every);
    let mut next_scrape = half(spec.scrape_every);
    let mut scratch = Closed::default();
    let started = Instant::now();
    loop {
        let now = secs(started.elapsed());
        driver.flush_outbox(service)?;
        let mut issued = 0usize;
        for _ in 0..held.len() {
            let (due, id) = held.pop_front().expect("length checked");
            if driver.ready(id) {
                held_count[id] -= 1;
                driver.issue(service, id, *wave, due)?;
                lateness.push((now - due) * 1e6);
                issued += 1;
            } else {
                held.push_back((due, id));
            }
        }
        while *wave < end_wave && next_due <= now {
            let senders = driver.senders(*wave);
            let id = senders[position] as usize;
            let due = next_due;
            next_due += gap;
            position += 1;
            if position == senders.len() {
                position = 0;
                *wave += 1;
            }
            if held_count[id] == 0 && driver.ready(id) {
                driver.issue(service, id, *wave, due)?;
                lateness.push((now - due) * 1e6);
                issued += 1;
            } else {
                held_count[id] += 1;
                held.push_back((due, id));
            }
        }
        if issued == 0 && service.queued_requests() == 0 {
            if *wave >= end_wave && held.is_empty() {
                break;
            }
            while *wave < end_wave && secs(started.elapsed()) < next_due {
                std::hint::spin_loop();
            }
            continue;
        }
        let before = secs(started.elapsed());
        let done = before + secs(driver.drain(service)?);
        latencies.extend(driver.answered.iter().map(|&due| (done - due) * 1e6));
        // The barriers follow the closed loop's wave cadence, counted in
        // waves of arrivals; queries falling due meanwhile wait them out.
        let checkpoint_due = spec.checkpoint_every > 0 && *wave >= next_checkpoint;
        let scrape_due = *wave >= next_scrape;
        if checkpoint_due {
            next_checkpoint += spec.checkpoint_every as u64;
        }
        if scrape_due {
            next_scrape += spec.scrape_every as u64;
        }
        periodic(service, driver, &mut scratch, (checkpoint_due, scrape_due))?;
    }
    latencies.sort_by(f64::total_cmp);
    Ok(Open {
        latencies,
        lateness,
    })
}

/// The counters a restore must carry over exactly.
fn ledger_fingerprint(metrics: &ShardMetrics) -> [u64; 9] {
    [
        metrics.quotes_served,
        metrics.observations,
        metrics.sales,
        metrics.revenue.to_bits(),
        metrics.regret.to_bits(),
        metrics.epsilon_spent.to_bits(),
        metrics.compensation_paid.to_bits(),
        metrics.auction.auctions,
        metrics.auction.sales,
    ]
}

/// Whether two services answered alike: same tenants, shards and payloads
/// (sequence numbers are per-service and may differ).
fn same_answers(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.tenant == y.tenant && x.shard == y.shard && x.payload == y.payload)
}

/// What a restore starts from: a base snapshot and the WAL segments
/// checkpointed after it.
struct Persisted {
    base: Json,
    segments: Vec<Json>,
    /// Rounds each tenant had issued when the base was taken.
    base_rounds: Vec<u64>,
}

/// Persists the service: a quiescent base snapshot, `tail_waves` of traffic
/// with checkpoints on the workload's cadence, and a closing checkpoint.
fn persist(
    spec: &Spec,
    service: &mut MarketService,
    driver: &mut Driver<'_>,
    wave: &mut u64,
) -> Result<Persisted, String> {
    driver.settle(service)?;
    let base = service.snapshot().map_err(|e| format!("snapshot: {e}"))?;
    let base_rounds = driver.tracks.iter().map(|t| t.rounds).collect();
    let mut segments = Vec::new();
    for tail in 1..=spec.tail_waves as u64 {
        driver.issue_wave(service, *wave)?;
        driver.drain(service)?;
        *wave += 1;
        if spec.checkpoint_every > 0 && tail % spec.checkpoint_every as u64 == 0 {
            driver.settle(service)?;
            checkpoint(service, Some(&mut segments))?;
        }
    }
    driver.settle(service)?;
    if spec.wal_segment.is_some() {
        checkpoint(service, Some(&mut segments))?;
    }
    Ok(Persisted {
        base,
        segments,
        base_rounds,
    })
}

/// `restore_with_wal` of the persisted base plus segments.
fn restore(persisted: &Persisted) -> Result<MarketService, String> {
    MarketService::restore_with_wal(&persisted.base, &persisted.segments)
        .map_err(|e| format!("restore: {e}"))
}

/// Checks a service restored right after [`persist`]: its ledgers match
/// the original's, service-wide and per tenant, and both then answer
/// `lockstep_waves` bit-identically.
fn check_restored(
    spec: &Spec,
    service: &mut MarketService,
    driver: &mut Driver<'_>,
    wave: &mut u64,
    mut restored: MarketService,
) -> Result<(), String> {
    if ledger_fingerprint(&restored.aggregate_metrics())
        != ledger_fingerprint(&service.aggregate_metrics())
    {
        return Err("correctness: restored service-wide ledgers differ".to_owned());
    }
    for id in 0..spec.tenants() {
        let tenant = TenantId(id as u64);
        let bits = |service: &MarketService| {
            service.tenant_report(tenant).map(|report| {
                [
                    report.cumulative_revenue.to_bits(),
                    report.cumulative_regret.to_bits(),
                    report.sales as u64,
                    report.rounds as u64,
                ]
            })
        };
        if bits(&restored) != bits(service) {
            return Err(format!("correctness: {tenant}: restored ledger differs"));
        }
    }
    let mut twin = driver.clone();
    for _ in 0..spec.lockstep_waves {
        driver.issue_wave(service, *wave)?;
        driver.drain(service)?;
        twin.issue_wave(&restored, *wave)?;
        twin.drain(&mut restored)?;
        if !same_answers(driver.last_responses(), twin.last_responses()) {
            return Err(format!(
                "correctness: restored service diverged in lockstep wave {wave}"
            ));
        }
        *wave += 1;
    }
    driver.settle(service)?;
    twin.settle(&mut restored)?;
    if !same_answers(driver.last_responses(), twin.last_responses()) {
        return Err("correctness: restored service diverged closing the lockstep".to_owned());
    }
    Ok(())
}

/// The checks at the end of every run: every tenant replayed serially
/// (privacy ledgers compared at the base snapshot's cut), and compensation
/// ≤ revenue service-wide.
fn final_checks(
    spec: &Spec,
    inputs: &Inputs,
    service: &MarketService,
    driver: &Driver<'_>,
    persisted: &Persisted,
) -> Result<(), String> {
    let cut = replay::Cut {
        snapshot: &persisted.base,
        rounds: &persisted.base_rounds,
    };
    replay::verify(spec, inputs, &driver.tracks, service, &cut)?;
    let compensation = service.aggregate_metrics().compensation_paid;
    if driver::below(driver.tally.privacy_revenue, compensation) {
        return Err(format!(
            "correctness: compensation {compensation} exceeds privacy revenue {}",
            driver.tally.privacy_revenue
        ));
    }
    Ok(())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs one workload and returns its metrics.
///
/// # Errors
/// An unknown workload, a service error, or a failed correctness check
/// (the message then starts with `correctness:`).
pub fn run(options: &Options) -> Result<Outcome, String> {
    let spec = Spec::get(&options.workload, options.scale)
        .ok_or_else(|| format!("unknown workload `{}`", options.workload))?;
    let inputs = Inputs::generate(&spec, options.seed);
    let schedule = spec.schedule();
    if options.trace {
        return traced(&spec, &inputs, &schedule, options);
    }

    let run_started = Instant::now();
    let (mut setups, mut restores) = (Vec::new(), Vec::new());
    let mut service = time_call(&mut setups, || setup(&spec))?;
    let mut driver = Driver::new(&spec, &inputs, &schedule);
    let mut wave = 0u64;
    let round_s = options.seconds / ROUNDS as f64;
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut waves, mut quotes, mut closed_s) = (0, 0, 0.0);
    let (mut latencies, mut lateness) = (Vec::new(), Vec::new());
    let mut persisted = None;
    let mut peak_rss = f64::NAN;
    for _ in 0..ROUNDS {
        let closed = closed_loop(
            &spec,
            &mut service,
            &mut driver,
            &mut wave,
            round_s * CLOSED_SHARE,
            false,
        )?;
        rates.push(closed.quotes as f64 / closed.seconds);
        waves += closed.waves;
        quotes += closed.quotes;
        closed_s += closed.seconds;
        let open = open_loop(
            &spec,
            &mut service,
            &mut driver,
            &mut wave,
            round_s * (1.0 - CLOSED_SHARE),
        )?;
        p50s.push(percentile(&open.latencies, 0.50));
        p99s.push(percentile(&open.latencies, 0.99));
        latencies.extend(open.latencies);
        lateness.extend(open.lateness);
        // One more setup and one more restore per round, so that their
        // calls, too, are spread over the whole run.
        match &persisted {
            None => {
                // The serving state's peak, before the snapshot and the
                // repeated setups and restores add copies of the service.
                peak_rss = peak_rss_mb()?;
                let done = persist(&spec, &mut service, &mut driver, &mut wave)?;
                let restored = time_call(&mut restores, || restore(&done))?;
                check_restored(&spec, &mut service, &mut driver, &mut wave, restored)?;
                persisted = Some(done);
            }
            Some(done) => {
                drop(time_call(&mut setups, || setup(&spec))?);
                drop(time_call(&mut restores, || restore(done))?);
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    // Rounds after the first add no regret: the window closes in round one.
    let regret_ratio = driver.tally.regret / driver.tally.value;
    lateness.sort_by(f64::total_cmp);
    setups.sort_by(f64::total_cmp);
    restores.sort_by(f64::total_cmp);
    let measured = secs(run_started.elapsed());
    let persisted = persisted.expect("the first round persists the service");
    final_checks(&spec, &inputs, &service, &driver, &persisted)?;

    let tally = &driver.tally;
    let ledgers = service.aggregate_metrics();
    let rounds = format!(
        "per round: quotes/s {}; p50 us {}; p99 us {}",
        list(&rates),
        list(&p50s),
        list(&p99s)
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("quotes_per_s", "1/s", quotes as f64 / closed_s),
            metric("quote_p50_us", "us", percentile(&latencies, 0.50)),
            metric("quote_p99_us", "us", percentile(&latencies, 0.99)),
            metric("regret_ratio", "1", regret_ratio),
            metric("peak_rss_mb", "MiB", peak_rss),
            metric("restore_s", "s", interquartile_mean(&restores)),
            metric("setup_s", "s", interquartile_mean(&setups)),
        ],
        notes: vec![
            format!(
                "wall: {measured:.2}s to the end of the rounds, {:.2}s with the final checks",
                secs(run_started.elapsed())
            ),
            format!(
                "closed loop: {waves} waves, {quotes} quotes over {ROUNDS} rounds; regret window {} waves",
                spec.regret_waves
            ),
            format!(
                "open loop: rate {} quotes/s, {} latency samples, driver lateness mean {:.1} us, p99 {:.1} us",
                spec.open_rate,
                latencies.len(),
                lateness.iter().sum::<f64>() / lateness.len().max(1) as f64,
                percentile(&lateness, 0.99)
            ),
            rounds,
            call_summary("setup", &setups),
            call_summary("restore", &restores),
            format!(
                "privacy: {} of {} owners retired, {} quotes throttled, {} arbitrage clamps",
                ledgers.owners_exhausted,
                spec.privacy * spec.privacy_dim,
                ledgers.privacy_throttled,
                ledgers.arbitrage_clamps
            ),
            format!(
                "failed_ratio {} ({} of {} requests)",
                tally.failed as f64 / tally.attempted.max(1) as f64,
                tally.failed,
                tally.attempted
            ),
        ],
    })
}

/// Per-layer figures of one traced run (or of the durable probe).
struct Layers {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// The traced run: a single-worker closed loop alternating untraced and
/// traced slices, the same durability phase and checks as an untraced run,
/// then the layer replay of the traced slices.
fn traced(
    spec: &Spec,
    inputs: &Inputs,
    schedule: &[Vec<u32>],
    options: &Options,
) -> Result<Outcome, String> {
    let layers = traced_layers(spec, inputs, schedule, options.seconds / 2.0)?;
    let mut metrics = layers.metrics;
    let mut notes = layers.notes;
    // Layers this workload does not exercise are measured on a small
    // durable probe, so every row exists in every traced run.
    let lacks = [
        (
            "auction.",
            spec.auction_session + spec.auction_empirical == 0,
        ),
        ("ledger.", spec.privacy == 0),
        ("wal.", spec.wal_segment.is_none()),
        ("paging.", spec.resident_cap.is_none()),
    ];
    if lacks.iter().any(|&(_, missing)| missing) {
        let probe = Spec::get("mixed-durable", Scale::Tiny).expect("the probe workload exists");
        let probe_inputs = Inputs::generate(&probe, options.seed);
        let probe_schedule = probe.schedule();
        let probed = traced_layers(&probe, &probe_inputs, &probe_schedule, PROBE_S)?;
        for (prefix, missing) in lacks {
            if !missing {
                continue;
            }
            for metric in metrics.iter_mut().filter(|m| m.name.starts_with(prefix)) {
                let measured = probed
                    .metrics
                    .iter()
                    .find(|m| m.name == metric.name)
                    .expect("the probe reports every metric");
                metric.value = measured.value;
                notes.push(format!("{} from the durable probe", metric.name));
            }
        }
    }
    Ok(Outcome {
        attempted: layers.attempted,
        failed: layers.failed,
        metrics,
        notes,
    })
}

fn traced_layers(
    spec: &Spec,
    inputs: &Inputs,
    schedule: &[Vec<u32>],
    seconds: f64,
) -> Result<Layers, String> {
    let mut service = build(spec)?;
    let mut driver = Driver::new(spec, inputs, schedule);
    driver.events = Some(Vec::new());
    let before = service.aggregate_metrics();
    let attempted_before = driver.tally.attempted;
    let mut wave = 0u64;
    let closed = closed_loop(spec, &mut service, &mut driver, &mut wave, seconds, true)?;
    let after = service.aggregate_metrics();
    let requests = (driver.tally.attempted - attempted_before).max(1) as f64;
    let resident_bytes = service.resident_memory_bytes() as f64 / spec.tenants() as f64;
    let events = driver.events.take().unwrap_or_default();
    let tally = driver.tally.clone();
    let persisted = persist(spec, &mut service, &mut driver, &mut wave)?;
    let snapshot_bytes = persisted.base.render().len();
    let restored = restore(&persisted)?;
    check_restored(spec, &mut service, &mut driver, &mut wave, restored)?;
    final_checks(spec, inputs, &service, &driver, &persisted)?;
    drop(service);
    let times = replay::time_layers(spec, inputs, &events)?;

    let rate = |traced: bool| {
        let mut rates: Vec<f64> = closed
            .slices
            .iter()
            .filter(|slice| slice.0 == traced && slice.1 > 0.0)
            .map(|slice| slice.2 as f64 / slice.1)
            .collect();
        median(&mut rates)
    };
    let (traced_qps, untraced_qps) = (rate(true), rate(false));
    let drain_ns = secs(closed.drain.time) * 1e9;
    let served = closed.drain.units.max(1) as f64;
    let unattributed = drain_ns - times.total_ns();
    let per_kreq = |count: u64| count as f64 * 1000.0 / requests;
    let quotes = tally.posted_quotes.max(1) as f64;
    let metrics = vec![
        metric("pricing.step_ns", "ns", times.step.mean()),
        metric("pricing.observe_ns", "ns", times.observe.mean()),
        metric(
            "pricing.exploratory_ratio",
            "1",
            tally.exploratory as f64 / quotes,
        ),
        metric(
            "pricing.reserve_bind_ratio",
            "1",
            tally.certain_no_sale as f64 / quotes,
        ),
        metric("service.ingest_ns", "ns", driver.ingest.mean()),
        metric("service.drain_ns", "ns", drain_ns / served),
        metric(
            "service.reqs_per_drain",
            "count",
            served / closed.drain.calls.max(1) as f64,
        ),
        metric("service.overhead_ns", "ns", unattributed / served),
        metric("auction.round_ns", "ns", times.auction.mean()),
        metric("ledger.quote_ns", "ns", times.ledger_quote.mean()),
        metric("ledger.settle_ns", "ns", times.ledger_settle.mean()),
        metric("wal.checkpoint_us", "us", closed.checkpoint.per_call(1e6)),
        metric(
            "wal.checkpoint_bytes",
            "bytes",
            closed.checkpoint.bytes as f64 / closed.checkpoint.calls.max(1) as f64,
        ),
        metric(
            "wal.segments",
            "count",
            closed.checkpoint.units as f64 / closed.checkpoint.calls.max(1) as f64,
        ),
        metric("snapshot.bytes", "bytes", snapshot_bytes as f64),
        metric(
            "paging.evictions_per_kreq",
            "count",
            per_kreq(after.evictions - before.evictions),
        ),
        metric(
            "paging.rehydrations_per_kreq",
            "count",
            per_kreq(after.rehydrations - before.rehydrations),
        ),
        metric("service.resident_bytes_per_tenant", "bytes", resident_bytes),
        metric("obs.scrape_us", "us", closed.scrape.per_call(1e6)),
        metric(
            "trace.overhead_pct",
            "%",
            (untraced_qps / traced_qps - 1.0) * 100.0,
        ),
    ];
    let row = |name: &str, ns: f64| {
        format!(
            "{name:<28} {:>14.0} ns {:>7.1}%",
            ns,
            100.0 * ns / drain_ns.max(1.0)
        )
    };
    let notes = vec![
        format!(
            "reconciliation over {} traced drains serving {} requests (1 worker):",
            closed.drain.calls, closed.drain.units
        ),
        row("pricing.step", times.step.ns),
        row("pricing.observe", times.observe.ns),
        row("ledger.quote", times.ledger_quote.ns),
        row("ledger.settle", times.ledger_settle.ns),
        row("auction.round", times.auction.ns),
        row("unattributed (service)", unattributed),
        row("drain wall", drain_ns),
        format!(
            "outside drains: ingest {:.0} ns, checkpoints {:.0} ns, scrapes {:.0} ns",
            driver.ingest.ns,
            secs(closed.checkpoint.time) * 1e9,
            secs(closed.scrape.time) * 1e9
        ),
        format!(
            "tracing overhead: traced {traced_qps:.0} vs untraced {untraced_qps:.0} quotes/s (1 worker)"
        ),
    ];
    Ok(Layers {
        metrics,
        notes,
        attempted: driver.tally.attempted,
        failed: driver.tally.failed,
    })
}
