//! Serial replays of the traffic a service served.
//!
//! [`verify`] is the correctness check of every run: each tenant's admitted
//! stream is regenerated and replayed through a fresh [`TenantState`] on
//! one thread, and the service must have produced the same prices and the
//! same ledgers bit for bit.  [`time_layers`] is the traced run's layer
//! attribution: the recorded response order is replayed through fresh
//! tenants, timing every call into the pricing, ledger and auction layers.

use crate::driver::{below, Track, EVENT_AUCTION, EVENT_OBSERVE, EVENT_QUOTE, EVENT_TRACED};
use crate::workload::{mix, Inputs, Kind, Spec};
use pdm_linalg::Json;
use pdm_pricing::prelude::StepOutcome;
use pdm_service::{arbitrage_clamp, MarketService, QueryRequest, Request, TenantId, TenantState};
use std::time::Instant;

/// A tenant's ledgers as persisted in a snapshot, to compare against the
/// replay at the snapshot's cut.
pub struct Cut<'a> {
    /// The snapshot document.
    pub snapshot: &'a Json,
    /// Rounds each tenant had issued when the snapshot was taken.
    pub rounds: &'a [u64],
}

/// One privacy quote, exactly as the shard serves it: ledger quote, the
/// throttled mechanism step with compensation folded into the reserve,
/// the arbitrage clamp, and the ledger commit.  Returns the surfaced price
/// and the nanoseconds spent in the ledger and pricing layers.
fn privacy_quote(state: &mut TenantState, query: &QueryRequest) -> Result<(f64, u64, u64), String> {
    let started = Instant::now();
    let bank = state
        .privacy
        .as_mut()
        .ok_or("privacy tenant without a bank")?;
    let supply = bank.begin_quote(&query.features);
    let ledger_ns = elapsed_ns(started);
    if !supply.sellable {
        return Err(format!("{}: supply exhausted", state.id));
    }
    let reserve = query.reserve_price.max(supply.total_compensation);
    let started = Instant::now();
    let quote = state
        .session
        .step_throttled(&query.features, &supply.active, reserve)
        .ok_or_else(|| format!("{}: nothing left to quote", state.id))?;
    let pricing_ns = elapsed_ns(started);
    let started = Instant::now();
    let (price, _) = arbitrage_clamp(quote.posted_price, reserve, supply.total_compensation);
    state
        .privacy
        .as_mut()
        .ok_or("privacy tenant without a bank")?
        .commit_quote(price);
    Ok((price, pricing_ns, ledger_ns + elapsed_ns(started)))
}

/// Nanoseconds since `started`.
#[must_use]
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bits_equal(doc: &Json, key: &str, expected: &[f64]) -> bool {
    doc.get(key).and_then(Json::as_arr).is_some_and(|column| {
        column.len() == expected.len()
            && column
                .iter()
                .zip(expected)
                .all(|(cell, want)| cell.as_f64().map(f64::to_bits) == Some(want.to_bits()))
    })
}

/// Compares a replayed privacy bank with the tenant's persisted ledgers.
fn check_bank(state: &TenantState, cut: &Cut<'_>, id: usize) -> Result<(), String> {
    let bank = state
        .privacy
        .as_ref()
        .ok_or("privacy tenant without a bank")?;
    let doc = cut
        .snapshot
        .get("tenants")
        .and_then(Json::as_arr)
        .and_then(|tenants| tenants.get(id))
        .filter(|doc| doc.get("id").and_then(Json::as_str) == Some(id.to_string().as_str()))
        .and_then(|doc| doc.get("market"))
        .ok_or_else(|| format!("tenant-{id}: missing from the snapshot"))?;
    let spent: Vec<f64> = bank.ledgers().iter().map(|l| l.epsilon_spent).collect();
    let paid: Vec<f64> = bank
        .ledgers()
        .iter()
        .map(|l| l.compensation_accrued)
        .collect();
    let totals = [bank.epsilon_spent_total(), bank.compensation_total()];
    let stored_totals = [
        doc.get("epsilon_spent_total").and_then(Json::as_f64),
        doc.get("compensation_total").and_then(Json::as_f64),
    ];
    let totals_match = totals
        .iter()
        .zip(stored_totals)
        .all(|(want, got)| got.map(f64::to_bits) == Some(want.to_bits()));
    if !(totals_match
        && bits_equal(doc, "epsilon_spent", &spent)
        && bits_equal(doc, "compensation", &paid))
    {
        return Err(format!(
            "correctness: tenant-{id}: persisted owner ledgers differ from the serial replay"
        ));
    }
    Ok(())
}

/// Replays one tenant serially and compares it with what the service did.
fn verify_tenant(
    spec: &Spec,
    inputs: &Inputs,
    track: &Track,
    service: &MarketService,
    cut: &Cut<'_>,
    id: usize,
) -> Result<(), String> {
    let kind = spec.kind(id);
    let mut state = TenantState::new(TenantId(id as u64), spec.tenant_config(kind));
    let mut hash = 0u64;
    let mut revenue = 0.0;
    for round in 0..track.rounds {
        if kind == Kind::Privacy && cut.rounds[id] == round {
            check_bank(&state, cut, id)?;
        }
        let generated = inputs.request(spec, id, round);
        match &generated.request {
            Request::Quote(query) => {
                let price = if kind == Kind::Privacy {
                    privacy_quote(&mut state, query)?.0
                } else {
                    state
                        .session
                        .step(&query.features, query.reserve_price)
                        .posted_price
                };
                hash = mix(hash ^ price.to_bits());
                let accepted = price <= generated.value;
                state
                    .session
                    .observe(StepOutcome::with_value(accepted, generated.value));
                if let Some(bank) = state.privacy.as_mut() {
                    bank.settle(accepted);
                    if accepted {
                        revenue += price;
                    }
                }
            }
            Request::Auction(auction) => {
                let cleared = state
                    .serve_auction(&auction.features, auction.floor, &auction.bids)
                    .ok_or_else(|| format!("tenant-{id}: not an auction tenant"))?;
                hash = mix(mix(hash ^ cleared.reserve.to_bits()) ^ cleared.result.price.to_bits());
            }
            Request::Observe(_) => unreachable!("generated traffic holds no outcomes"),
        }
    }
    if kind == Kind::Privacy && cut.rounds[id] == track.rounds {
        check_bank(&state, cut, id)?;
    }
    if hash != track.hash {
        return Err(format!(
            "correctness: tenant-{id}: served prices differ from the serial replay"
        ));
    }
    let serial = state.session.tracker().report();
    let served = service
        .tenant_report(TenantId(id as u64))
        .ok_or_else(|| format!("tenant-{id}: lost by the service"))?;
    if serial.cumulative_revenue.to_bits() != served.cumulative_revenue.to_bits()
        || serial.cumulative_regret.to_bits() != served.cumulative_regret.to_bits()
        || serial.sales != served.sales
        || serial.rounds != served.rounds
    {
        return Err(format!(
            "correctness: tenant-{id}: service ledger differs from the serial replay"
        ));
    }
    if let Some(bank) = state.privacy.as_ref() {
        if below(revenue, bank.compensation_total()) {
            return Err(format!(
                "correctness: tenant-{id}: compensation {} exceeds revenue {revenue}",
                bank.compensation_total()
            ));
        }
    }
    Ok(())
}

/// Replays every tenant's stream serially (tenants split over two
/// threads) and checks prices, regret ledgers and, at `cut`, the privacy
/// ledgers bit for bit.
///
/// # Errors
/// The first divergence found.
pub fn verify(
    spec: &Spec,
    inputs: &Inputs,
    tracks: &[Track],
    service: &MarketService,
    cut: &Cut<'_>,
) -> Result<(), String> {
    const THREADS: usize = 2;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|part| {
                scope.spawn(move || {
                    (part..tracks.len()).step_by(THREADS).try_for_each(|id| {
                        verify_tenant(spec, inputs, &tracks[id], service, cut, id)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .map_err(|_| "replay thread panicked".to_owned())?
            })
            .collect::<Result<Vec<()>, String>>()
            .map(|_| ())
    })
}

/// Summed nanoseconds and call counts of one layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Total nanoseconds, clock overhead subtracted.
    pub ns: f64,
    /// Calls timed.
    pub calls: u64,
}

impl Timed {
    /// Adds one call of `ns` nanoseconds, less the clock's own cost.
    pub fn add(&mut self, ns: u64, clock_ns: f64) {
        self.ns += (ns as f64 - clock_ns).max(0.0);
        self.calls += 1;
    }

    /// Mean nanoseconds per call (0 when never called).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }
}

/// Layer times of the traced segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `PricingSession::step` (and `step_throttled`): the quote kernel.
    pub step: Timed,
    /// `PricingSession::observe`: the ellipsoid cut.
    pub observe: Timed,
    /// `LedgerBank::begin_quote` + `commit_quote`.
    pub ledger_quote: Timed,
    /// `LedgerBank::settle`.
    pub ledger_settle: Timed,
    /// `TenantState::serve_auction`.
    pub auction: Timed,
}

impl LayerTimes {
    /// Total attributed nanoseconds.
    #[must_use]
    pub fn total_ns(&self) -> f64 {
        self.step.ns
            + self.observe.ns
            + self.ledger_quote.ns
            + self.ledger_settle.ns
            + self.auction.ns
    }
}

/// Median cost of one `Instant` pair on this machine, subtracted from every
/// timed call.
#[must_use]
pub fn clock_overhead_ns() -> f64 {
    let mut samples: Vec<u64> = (0..4_001)
        .map(|_| {
            let started = Instant::now();
            elapsed_ns(started)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Replays the recorded response order through fresh tenants, timing each
/// layer call of the events flagged as traced.
///
/// # Errors
/// A recorded event that does not fit the tenant's stream.
pub fn time_layers(spec: &Spec, inputs: &Inputs, events: &[u64]) -> Result<LayerTimes, String> {
    let clock_ns = clock_overhead_ns();
    let mut states: Vec<TenantState> = (0..spec.tenants())
        .map(|id| TenantState::new(TenantId(id as u64), spec.tenant_config(spec.kind(id))))
        .collect();
    let mut rounds = vec![0u64; spec.tenants()];
    // The surfaced price and market value of each tenant's open round.
    let mut open = vec![(0.0f64, 0.0f64); spec.tenants()];
    let mut times = LayerTimes::default();
    for &event in events {
        let id = (event & 0xFFFF_FFFF) as usize;
        let traced = event & EVENT_TRACED != 0;
        let state = &mut states[id];
        match (event >> 32) & 0xFF {
            EVENT_QUOTE => {
                let generated = inputs.request(spec, id, rounds[id]);
                rounds[id] += 1;
                let Request::Quote(query) = &generated.request else {
                    return Err(format!("tenant-{id}: recorded quote for an auction tenant"));
                };
                let price = if state.privacy.is_some() {
                    let (price, pricing_ns, ledger_ns) = privacy_quote(state, query)?;
                    if traced {
                        times.step.add(pricing_ns, clock_ns);
                        times.ledger_quote.add(ledger_ns, 2.0 * clock_ns);
                    }
                    price
                } else {
                    let started = Instant::now();
                    let quote = state.session.step(&query.features, query.reserve_price);
                    let ns = elapsed_ns(started);
                    if traced {
                        times.step.add(ns, clock_ns);
                    }
                    quote.posted_price
                };
                open[id] = (price, generated.value);
            }
            EVENT_OBSERVE => {
                let (price, value) = open[id];
                let accepted = price <= value;
                let started = Instant::now();
                state
                    .session
                    .observe(StepOutcome::with_value(accepted, value));
                let observe_ns = elapsed_ns(started);
                if traced {
                    times.observe.add(observe_ns, clock_ns);
                }
                if let Some(bank) = state.privacy.as_mut() {
                    let started = Instant::now();
                    bank.settle(accepted);
                    let settle_ns = elapsed_ns(started);
                    if traced {
                        times.ledger_settle.add(settle_ns, clock_ns);
                    }
                }
            }
            EVENT_AUCTION => {
                let generated = inputs.request(spec, id, rounds[id]);
                rounds[id] += 1;
                let Request::Auction(auction) = &generated.request else {
                    return Err(format!("tenant-{id}: recorded auction for a quote tenant"));
                };
                let started = Instant::now();
                let cleared = state.serve_auction(&auction.features, auction.floor, &auction.bids);
                let ns = elapsed_ns(started);
                std::hint::black_box(cleared);
                if traced {
                    times.auction.add(ns, clock_ns);
                }
            }
            other => return Err(format!("unknown recorded event kind {other}")),
        }
    }
    Ok(times)
}
