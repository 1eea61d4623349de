//! The traffic driver: issues generated requests into a service, drains
//! it, answers every quote with the buyer's accept bit, and checks each
//! response as it arrives.
//!
//! Outcomes of one drain are ingested at the start of the next, ahead of
//! the tenants' next quotes; per-shard FIFO order then closes each round
//! before the tenant's next one opens.  A checkpoint or snapshot needs
//! every round closed, so it is preceded by a barrier ([`Driver::settle`])
//! that serves the outstanding outcomes.

use crate::replay::{clock_overhead_ns, elapsed_ns, Timed};
use crate::workload::{mix, Inputs, Kind, Spec};
use pdm_pricing::prelude::QuoteKind;
use pdm_service::{MarketService, OutcomeReport, Payload, Request, Response, ServiceError};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// Drain workers of every phase.  A second worker is a fresh thread per
/// drain, and a drain then waits for both vCPUs: its spawn cost and any
/// time the hypervisor steals from either vCPU land in every measurement.
/// On the 2-vCPU machine the benchmark was built on, two workers made
/// `quotes_per_s` vary by up to 25% between runs and put millisecond stalls
/// into the open-loop tail; one worker keeps both within the bounds.
pub const WORKERS: usize = 1;

/// Per-tenant driver state.
#[derive(Debug, Clone, Default)]
pub struct Track {
    /// Requests issued so far (quotes and auction rounds); round `k` of the
    /// tenant uses input `k`.
    pub rounds: u64,
    /// Fold of every price bit the service returned to this tenant.
    pub hash: u64,
    /// The request in flight, until its answer arrives.
    open: Option<Open>,
    /// An answered quote whose outcome is queued or about to be.
    closing: Option<Open>,
}

/// The round a tenant has in flight.
#[derive(Debug, Clone, Copy)]
struct Open {
    value: f64,
    reserve: f64,
    wave: u64,
    /// When the quote fell due (open loop), seconds into the phase.
    due: f64,
}

/// Counters of one driver, summed over its whole life.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests ingested or refused at ingest.
    pub attempted: u64,
    /// Requests shed at ingest or answered with an error.
    pub failed: u64,
    /// Quotes answered: posted and privacy quotes plus auction rounds.
    pub quotes: u64,
    /// Posted and privacy quotes, by kind.
    pub exploratory: u64,
    /// Quotes where the reserve made the round a certain no-sale.
    pub certain_no_sale: u64,
    /// Posted and privacy quotes answered.
    pub posted_quotes: u64,
    /// Regret of posted and privacy rounds issued in the regret window.
    pub regret: f64,
    /// Market value of the same rounds.
    pub value: f64,
    /// Revenue of privacy rounds, for the compensation ≤ revenue check.
    pub privacy_revenue: f64,
}

/// Response kinds in a recorded event.
pub const EVENT_QUOTE: u64 = 1;
/// An outcome closed a round.
pub const EVENT_OBSERVE: u64 = 2;
/// An auction round cleared.
pub const EVENT_AUCTION: u64 = 3;
/// Event flag: served inside a traced segment.
pub const EVENT_TRACED: u64 = 1 << 40;

/// Drives one service through generated traffic.
#[derive(Debug, Clone)]
pub struct Driver<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    schedule: &'a [Vec<u32>],
    /// Per-tenant state.
    pub tracks: Vec<Track>,
    /// Counters.
    pub tally: Tally,
    outbox: Vec<OutcomeReport>,
    responses: Vec<Response>,
    /// Due times of the quotes answered by the last drain.
    pub answered: Vec<f64>,
    /// Response order as `tenant | kind << 32 | traced flag`, when recording.
    pub events: Option<Vec<u64>>,
    /// Whether this is a traced slice: events are flagged as traced and
    /// ingest calls are timed.
    pub tracing: bool,
    /// Ingest calls timed while tracing.
    pub ingest: Timed,
    clock_ns: f64,
}

/// Whether `value` is below `floor`; a NaN on either side counts as below,
/// so a check built on this fails closed.
#[must_use]
pub fn below(value: f64, floor: f64) -> bool {
    value.partial_cmp(&floor).is_none_or(Ordering::is_lt)
}

fn violation(message: String) -> String {
    format!("correctness: {message}")
}

impl<'a> Driver<'a> {
    /// A driver with no traffic issued yet.
    #[must_use]
    pub fn new(spec: &'a Spec, inputs: &'a Inputs, schedule: &'a [Vec<u32>]) -> Self {
        Self {
            spec,
            inputs,
            schedule,
            tracks: vec![Track::default(); spec.tenants()],
            tally: Tally::default(),
            outbox: Vec::new(),
            responses: Vec::new(),
            answered: Vec::new(),
            events: None,
            tracing: false,
            ingest: Timed::default(),
            clock_ns: clock_overhead_ns(),
        }
    }

    /// The tenants sending in `wave`.
    #[must_use]
    pub fn senders(&self, wave: u64) -> &'a [u32] {
        &self.schedule[(wave % self.schedule.len() as u64) as usize]
    }

    /// Whether tenant `id` can take a new request now: its previous one
    /// is answered, so any outcome is queued ahead of the new request.
    #[must_use]
    pub fn ready(&self, id: usize) -> bool {
        self.tracks[id].open.is_none()
    }

    /// Ingests the outcomes of the last drain.
    ///
    /// # Errors
    /// Any ingest error: the queues are sized so none can occur.
    pub fn flush_outbox(&mut self, service: &MarketService) -> Result<(), String> {
        let mut outbox = std::mem::take(&mut self.outbox);
        for outcome in outbox.drain(..) {
            self.tally.attempted += 1;
            self.timed_ingest(service, Request::Observe(outcome))
                .map_err(|e| format!("ingest outcome: {e}"))?;
        }
        self.outbox = outbox;
        Ok(())
    }

    fn timed_ingest(
        &mut self,
        service: &MarketService,
        request: Request,
    ) -> Result<(), ServiceError> {
        if !self.tracing {
            return service.ingest(request).map(drop);
        }
        let started = Instant::now();
        let result = service.ingest(request);
        self.ingest.add(elapsed_ns(started), self.clock_ns);
        result.map(drop)
    }

    /// Ingests tenant `id`'s next request, issued in `wave` and due at
    /// `due` seconds into the phase.
    ///
    /// # Errors
    /// An ingest error other than shedding.
    pub fn issue(
        &mut self,
        service: &MarketService,
        id: usize,
        wave: u64,
        due: f64,
    ) -> Result<(), String> {
        let generated = self.inputs.request(self.spec, id, self.tracks[id].rounds);
        self.tally.attempted += 1;
        let result = self.timed_ingest(service, generated.request);
        let track = &mut self.tracks[id];
        match result {
            Ok(()) => {
                track.rounds += 1;
                track.open = Some(Open {
                    value: generated.value,
                    reserve: generated.reserve,
                    wave,
                    due,
                });
                Ok(())
            }
            Err(ServiceError::QueueFull { .. }) => {
                self.tally.failed += 1;
                Ok(())
            }
            Err(e) => Err(format!("ingest request: {e}")),
        }
    }

    /// Issues one closed-loop wave: last wave's outcomes, then one request
    /// per sending tenant.
    ///
    /// # Errors
    /// As [`Driver::issue`].
    pub fn issue_wave(&mut self, service: &MarketService, wave: u64) -> Result<(), String> {
        self.flush_outbox(service)?;
        for &id in self.senders(wave) {
            self.issue(service, id as usize, wave, 0.0)?;
        }
        Ok(())
    }

    /// Drains the service on [`WORKERS`] workers and checks every response;
    /// returns the time spent in `drain_into` alone, without the checks.
    ///
    /// # Errors
    /// A correctness violation in a response.
    pub fn drain(&mut self, service: &mut MarketService) -> Result<Duration, String> {
        let mut responses = std::mem::take(&mut self.responses);
        responses.clear();
        let started = Instant::now();
        service.drain_into(WORKERS, &mut responses);
        let drained = started.elapsed();
        self.answered.clear();
        let result = responses
            .iter()
            .try_for_each(|response| self.check(response));
        self.responses = responses;
        result.map(|()| drained)
    }

    /// Serves the outstanding outcomes so every round is closed.
    ///
    /// # Errors
    /// As [`Driver::drain`].
    pub fn settle(&mut self, service: &mut MarketService) -> Result<Duration, String> {
        self.flush_outbox(service)?;
        self.drain(service)
    }

    /// The responses of the last drain.
    #[must_use]
    pub fn last_responses(&self) -> &[Response] {
        &self.responses
    }

    fn record(&mut self, tenant: u64, kind: u64) {
        let traced = if self.tracing { EVENT_TRACED } else { 0 };
        if let Some(events) = self.events.as_mut() {
            events.push(tenant | kind << 32 | traced);
        }
    }

    fn check(&mut self, response: &Response) -> Result<(), String> {
        let id = usize::try_from(response.tenant.0).map_err(|e| e.to_string())?;
        let kind = self.spec.kind(id);
        let tenant = response.tenant;
        match &response.payload {
            Payload::Quoted(quote) => {
                let track = &mut self.tracks[id];
                let open = track
                    .open
                    .take()
                    .ok_or_else(|| violation(format!("{tenant}: quote without a request")))?;
                track.closing = Some(open);
                let price = quote.posted_price;
                if below(price, open.reserve) {
                    return Err(violation(format!(
                        "{tenant}: posted price {price} below its reserve {}",
                        open.reserve
                    )));
                }
                let track = &mut self.tracks[id];
                track.hash = mix(track.hash ^ price.to_bits());
                self.tally.quotes += 1;
                self.tally.posted_quotes += 1;
                match quote.kind {
                    QuoteKind::Exploratory => self.tally.exploratory += 1,
                    QuoteKind::CertainNoSale => self.tally.certain_no_sale += 1,
                    QuoteKind::Conservative | QuoteKind::Baseline => {}
                }
                self.answered.push(open.due);
                self.outbox.push(OutcomeReport {
                    tenant,
                    accepted: price <= open.value,
                    market_value: Some(open.value),
                });
                self.record(response.tenant.0, EVENT_QUOTE);
            }
            Payload::Observed(round) => {
                let open = self.tracks[id]
                    .closing
                    .take()
                    .ok_or_else(|| violation(format!("{tenant}: outcome without a round")))?;
                if open.wave < self.spec.regret_waves as u64 {
                    self.tally.regret += round.regret.unwrap_or(0.0);
                    self.tally.value += open.value;
                }
                if kind == Kind::Privacy {
                    self.tally.privacy_revenue += round.revenue;
                }
                self.record(response.tenant.0, EVENT_OBSERVE);
            }
            Payload::Cleared(cleared) => {
                let open = self.tracks[id]
                    .open
                    .take()
                    .ok_or_else(|| violation(format!("{tenant}: auction without a request")))?;
                if below(cleared.reserve, open.reserve)
                    || (cleared.result.sold() && below(cleared.result.price, cleared.reserve))
                {
                    return Err(violation(format!(
                        "{tenant}: auction reserve {} / price {} under floor {}",
                        cleared.reserve, cleared.result.price, open.reserve
                    )));
                }
                let track = &mut self.tracks[id];
                track.hash =
                    mix(mix(track.hash ^ cleared.reserve.to_bits())
                        ^ cleared.result.price.to_bits());
                self.tally.quotes += 1;
                self.answered.push(open.due);
                self.record(response.tenant.0, EVENT_AUCTION);
            }
            Payload::Failed(error) => {
                if self.tally.failed == 0 {
                    eprintln!("perfbench: first failed request: {tenant}: {error}");
                }
                self.tally.failed += 1;
                let track = &mut self.tracks[id];
                if track.open.take().is_none() {
                    track.closing = None;
                }
            }
        }
        Ok(())
    }
}

/// Ingest-queue capacity that never sheds this workload's traffic: every
/// tenant may have one outcome and one request queued, with headroom for
/// open-loop bursts.
#[must_use]
pub fn queue_capacity(spec: &Spec) -> usize {
    2 * spec.tenants() + 1024
}
