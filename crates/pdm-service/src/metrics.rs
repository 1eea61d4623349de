//! Per-shard serving counters.
//!
//! Each shard counts what it served (quotes, observations, sales), what it
//! earned (revenue), how much it may have left on the table (exact regret
//! when the workload supplies ground truth, the uncertainty-width *proxy*
//! always), what it refused (shed and rejected requests), how its
//! drift-aware tenants reacted to a moving market (surprisal-detector
//! firings and knowledge-set restarts), what the cold-tenant pager did, and
//! what its privacy tenants spent and paid.
//!
//! Auction tenants report through the same ledger: the nested
//! [`AuctionLedger`] counts settled rounds, sales, reserve hits, clearing
//! revenue, allocative welfare, and the second-price-no-reserve baseline —
//! the figures the `bench auction` workload and the reserve-uplift
//! dashboards read per shard.
//!
//! Every counter is **deterministic**: counts and monetary sums depend only
//! on the request stream, never on thread timing, which is what lets `bench
//! serve` compare worker counts byte for byte.  Wall-clock latency is not
//! kept here; it lives in each shard's `pdm-obs` registry
//! ([`crate::REQUEST_LATENCY`]).
//!
//! Every counter is described once, in [`FIELDS`]: its snapshot key, its
//! scrape name and help, whether it counts or sums, the snapshot schema
//! version that introduced it, and its accessors.  [`ShardMetrics::merge`],
//! the snapshot/WAL codec, and the scrape export all iterate that table, so
//! adding a counter means adding one struct field and one table row.

use pdm_auction::AuctionLedger;

/// The counters of one shard (or of a whole service, after
/// [`ShardMetrics::merge`]).
#[derive(Debug, Clone, Default)]
pub struct ShardMetrics {
    /// Price quotes served.
    pub quotes_served: u64,
    /// Outcome reports applied.
    pub observations: u64,
    /// Accepted quotes (sales).
    pub sales: u64,
    /// Cumulative revenue from accepted quotes.
    pub revenue: f64,
    /// Exact cumulative regret, accumulated only from outcomes that carried
    /// a ground-truth market value.
    pub regret: f64,
    /// Cumulative quote uncertainty width — the regret proxy that needs no
    /// ground truth (it shrinks as each tenant's knowledge set converges).
    pub regret_proxy: f64,
    /// Requests shed at admission because the shard queue was full.
    pub shed: u64,
    /// Requests that reached the shard but could not be served (e.g. an
    /// observe with no open round, or a request whose kind does not match
    /// the tenant's market).
    pub rejected: u64,
    /// The auction side of the shard: settled rounds, sales, reserve hits,
    /// clearing revenue, welfare, and the no-reserve baseline.  All zero on
    /// a shard serving only posted-price tenants.
    pub auction: AuctionLedger,
    /// Drift-detector firings across the shard's tenants (restart-policy
    /// tenants only; deterministic — the detector sees only the request
    /// stream).
    pub drift_fires: u64,
    /// Knowledge-set restarts performed across the shard's tenants.
    pub drift_restarts: u64,
    /// Tenant sessions paged out of the resident set by the cold-tenant
    /// pager (deterministic for a given request stream: the LRU order
    /// depends only on the per-shard serve sequence).
    pub evictions: u64,
    /// Paged-out tenant sessions materialised back in to serve a request.
    pub rehydrations: u64,
    /// Total privacy leakage ε debited across the shard's privacy tenants
    /// (sold queries only; deterministic — debits accumulate in FIFO serve
    /// order).
    pub epsilon_spent: f64,
    /// Total compensation accrued to data owners across the shard's
    /// privacy tenants (sold queries only).
    pub compensation_paid: f64,
    /// Data owners retired because a query's leakage exceeded their
    /// remaining budget.  Monotone: exhaustion is sticky.
    pub owners_exhausted: u64,
    /// Privacy quotes refused because every weighted owner was exhausted —
    /// the sellable supply was gone ([`crate::RequestError::BudgetExhausted`]).
    pub privacy_throttled: u64,
    /// Posted prices clamped down to the arbitrage-free ceiling
    /// ([`crate::ledger::ARBITRAGE_PRICE_MARKUP`] × total compensation).
    pub arbitrage_clamps: u64,
}

/// Whether a counter counts events or sums amounts, with its reader and
/// writer.
#[derive(Debug, Clone, Copy)]
pub enum Access {
    /// An event count, persisted and exported as a whole number.
    Count(fn(&ShardMetrics) -> u64, fn(&mut ShardMetrics) -> &mut u64),
    /// A monetary or privacy-loss sum.
    Sum(fn(&ShardMetrics) -> f64, fn(&mut ShardMetrics) -> &mut f64),
}

/// One counter of the ledger.  See [`FIELDS`].
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// Key in a snapshot or WAL `metrics` object; `group.key` nests the
    /// counter under the `group` object.
    pub key: &'static str,
    /// Counter name in [`crate::MarketService::scrape`].
    pub name: &'static str,
    /// Help text in the scrape.
    pub help: &'static str,
    /// Snapshot schema version that introduced the counter.  A counter as
    /// old as its object is required in every document carrying that
    /// object; a later one reads as zero when absent.
    pub since: u64,
    /// Count or sum, and how to reach it.
    pub access: Access,
}

impl Field {
    /// The counter as `f64` — the form snapshots and the scrape write
    /// (counts convert exactly below 2^53).
    #[must_use]
    pub fn value(&self, metrics: &ShardMetrics) -> f64 {
        match self.access {
            Access::Count(get, _) => get(metrics) as f64,
            Access::Sum(get, _) => get(metrics),
        }
    }

    /// The counter's exact bit pattern (the count itself, or the sum's
    /// `f64::to_bits`), for bit-for-bit ledger comparisons.
    #[must_use]
    pub fn bits(&self, metrics: &ShardMetrics) -> u64 {
        match self.access {
            Access::Count(get, _) => get(metrics),
            Access::Sum(get, _) => get(metrics).to_bits(),
        }
    }

    /// The nested object holding the counter (`None` for the top level)
    /// and its key inside that object.
    #[must_use]
    pub fn path(&self) -> (Option<&'static str>, &'static str) {
        match self.key.split_once('.') {
            Some((group, key)) => (Some(group), key),
            None => (None, self.key),
        }
    }
}

macro_rules! count {
    ($($path:ident).+) => {
        Access::Count(|m| m.$($path).+, |m| &mut m.$($path).+)
    };
}

macro_rules! sum {
    ($($path:ident).+) => {
        Access::Sum(|m| m.$($path).+, |m| &mut m.$($path).+)
    };
}

/// Every counter of [`ShardMetrics`], in snapshot and export order.  The
/// rows of one nested object are contiguous.
#[rustfmt::skip]
pub const FIELDS: &[Field] = &[
    Field { key: "quotes_served", name: "quotes_served_total", since: 1, access: count!(quotes_served), help: "Price quotes served" },
    Field { key: "observations", name: "observations_total", since: 1, access: count!(observations), help: "Outcome reports applied" },
    Field { key: "sales", name: "sales_total", since: 1, access: count!(sales), help: "Accepted quotes" },
    Field { key: "revenue", name: "revenue_total", since: 1, access: sum!(revenue), help: "Cumulative revenue from accepted quotes" },
    Field { key: "regret", name: "regret_total", since: 1, access: sum!(regret), help: "Exact cumulative regret (ground-truth outcomes only)" },
    Field { key: "regret_proxy", name: "regret_proxy_total", since: 1, access: sum!(regret_proxy), help: "Cumulative quote uncertainty width" },
    Field { key: "shed", name: "shed_total", since: 1, access: count!(shed), help: "Requests shed at admission (queue full)" },
    Field { key: "rejected", name: "rejected_total", since: 1, access: count!(rejected), help: "Requests that reached a shard but could not be served" },
    Field { key: "drift_fires", name: "drift_fires_total", since: 3, access: count!(drift_fires), help: "Drift-detector firings" },
    Field { key: "drift_restarts", name: "drift_restarts_total", since: 3, access: count!(drift_restarts), help: "Knowledge-set restarts" },
    Field { key: "evictions", name: "evictions_total", since: 4, access: count!(evictions), help: "Tenant sessions paged out by the cold-tenant pager" },
    Field { key: "rehydrations", name: "rehydrations_total", since: 4, access: count!(rehydrations), help: "Paged-out tenant sessions materialised back in" },
    Field { key: "epsilon_spent", name: "epsilon_spent_total", since: 5, access: sum!(epsilon_spent), help: "Privacy leakage debited across privacy tenants" },
    Field { key: "compensation_paid", name: "compensation_paid_total", since: 5, access: sum!(compensation_paid), help: "Compensation accrued to data owners" },
    Field { key: "owners_exhausted", name: "owners_exhausted_total", since: 5, access: count!(owners_exhausted), help: "Data owners retired on budget exhaustion" },
    Field { key: "privacy_throttled", name: "privacy_throttled_total", since: 5, access: count!(privacy_throttled), help: "Privacy quotes refused for exhausted supply" },
    Field { key: "arbitrage_clamps", name: "arbitrage_clamps_total", since: 5, access: count!(arbitrage_clamps), help: "Posted prices clamped to the arbitrage-free ceiling" },
    Field { key: "auction.auctions", name: "auction.rounds_total", since: 2, access: count!(auction.auctions), help: "Auction rounds settled" },
    Field { key: "auction.sales", name: "auction.sales_total", since: 2, access: count!(auction.sales), help: "Auction rounds that sold" },
    Field { key: "auction.reserve_hits", name: "auction.reserve_hits_total", since: 2, access: count!(auction.reserve_hits), help: "Sold auction rounds priced by the reserve" },
    Field { key: "auction.revenue", name: "auction.revenue_total", since: 2, access: sum!(auction.revenue), help: "Cumulative auction clearing revenue" },
    Field { key: "auction.welfare", name: "auction.welfare_total", since: 2, access: sum!(auction.welfare), help: "Cumulative allocative welfare (winning bids)" },
    Field { key: "auction.baseline_revenue", name: "auction.baseline_revenue_total", since: 2, access: sum!(auction.baseline_revenue), help: "Second-price-no-reserve baseline revenue" },
];

impl ShardMetrics {
    /// An empty metrics ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of sold auction rounds whose price was set by the reserve
    /// rather than the second bid (zero before any auction sale) — the
    /// per-shard **reserve hit-rate**.
    #[must_use]
    pub fn reserve_hit_rate(&self) -> f64 {
        self.auction.reserve_hit_rate()
    }

    /// Fraction of settled rounds that ended in a sale (zero before any
    /// round).
    ///
    /// Auction rounds settle in one request without touching
    /// `observations`, so the denominator is `observations +
    /// auction.auctions` and the numerator `sales + auction.sales` —
    /// counting only posted-price rounds used to report a hard 0% on
    /// auction-only shards no matter how much they sold.
    #[must_use]
    pub fn accept_rate(&self) -> f64 {
        let rounds = self.observations + self.auction.auctions;
        if rounds == 0 {
            0.0
        } else {
            (self.sales + self.auction.sales) as f64 / rounds as f64
        }
    }

    /// Fraction of admission attempts that were shed (zero before any
    /// traffic).
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        let attempts = self.quotes_served
            + self.observations
            + self.auction.auctions
            + self.rejected
            + self.shed;
        if attempts == 0 {
            0.0
        } else {
            self.shed as f64 / attempts as f64
        }
    }

    /// Accumulates another ledger into this one, counter by counter (used
    /// to roll shards up into service-level totals).
    pub fn merge(&mut self, other: &ShardMetrics) {
        for field in FIELDS {
            match field.access {
                Access::Count(get, slot) => *slot(self) += get(other),
                Access::Sum(get, slot) => *slot(self) += get(other),
            }
        }
    }
}

/// A ledger whose every counter holds a distinct value, set through its own
/// [`FIELDS`] row: the `i`-th row holds `i + 1` (counts) or `i + 0.25`
/// (sums), so a row whose accessors reach the wrong field shows.
#[cfg(test)]
pub(crate) fn distinct_ledger() -> ShardMetrics {
    let mut metrics = ShardMetrics::new();
    for (i, field) in FIELDS.iter().enumerate() {
        match field.access {
            Access::Count(_, slot) => *slot(&mut metrics) = i as u64 + 1,
            Access::Sum(_, slot) => *slot(&mut metrics) = i as f64 + 0.25,
        }
    }
    metrics
}

/// Asserts that two runs of shard ledgers agree bit for bit on every
/// counter of [`FIELDS`], naming the first shard and counter that differ.
#[cfg(test)]
pub(crate) fn assert_same_ledgers(actual: &[ShardMetrics], expected: &[ShardMetrics]) {
    assert_eq!(actual.len(), expected.len(), "shard count");
    for (shard, (actual, expected)) in actual.iter().zip(expected).enumerate() {
        for field in FIELDS {
            assert_eq!(
                field.bits(actual),
                field.bits(expected),
                "shard {shard}: `{}` differs",
                field.key
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn rates_and_merge() {
        let empty = ShardMetrics::new();
        assert_eq!(empty.accept_rate(), 0.0);
        assert_eq!(empty.shed_rate(), 0.0);

        let mut a = ShardMetrics::new();
        a.quotes_served = 10;
        a.observations = 10;
        a.sales = 7;
        a.revenue = 70.0;
        a.shed = 5;
        let mut b = ShardMetrics::new();
        b.quotes_served = 2;
        b.observations = 2;
        b.sales = 1;
        b.revenue = 8.0;

        assert!((a.accept_rate() - 0.7).abs() < 1e-12);
        assert!((a.shed_rate() - 5.0 / 25.0).abs() < 1e-12);

        a.merge(&b);
        assert_eq!(a.quotes_served, 12);
        assert_eq!(a.sales, 8);
        assert!((a.revenue - 78.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_every_counter_of_the_table() {
        let mut merged = distinct_ledger();
        merged.merge(&distinct_ledger());
        for field in FIELDS {
            let once = field.value(&distinct_ledger());
            assert_eq!(field.value(&merged), 2.0 * once, "{}", field.key);
        }
        assert_eq!(merged.auction.auctions, 2 * 18);
        assert_eq!(merged.privacy_throttled, 2 * 16);
    }

    #[test]
    fn the_table_names_each_counter_once_and_groups_nested_rows() {
        let keys: BTreeSet<_> = FIELDS.iter().map(|f| f.key).collect();
        let names: BTreeSet<_> = FIELDS.iter().map(|f| f.name).collect();
        assert_eq!(keys.len(), FIELDS.len());
        assert_eq!(names.len(), FIELDS.len());
        // The codec opens a nested object at its first row, so the rows of
        // one group must be contiguous.
        let mut closed = BTreeSet::new();
        let mut open = None;
        for field in FIELDS {
            let (group, _) = field.path();
            if group != open {
                if let Some(done) = open {
                    closed.insert(done);
                }
                assert!(group.is_none_or(|g| !closed.contains(g)), "{}", field.key);
                open = group;
            }
            assert!(field.name.ends_with("_total"), "{}", field.name);
            assert!((1..=crate::SNAPSHOT_SCHEMA_VERSION).contains(&field.since));
        }
    }

    #[test]
    fn accept_and_shed_rates_count_auction_rounds_as_settled_attempts() {
        // Regression: auction rounds settle without touching
        // `observations`, so a pure-auction shard used to report a 0%
        // accept rate (and its shed rate was computed against an attempt
        // count that ignored the settled rounds).
        let mut m = ShardMetrics::new();
        m.auction.auctions = 20;
        m.auction.sales = 15;
        assert!(
            (m.accept_rate() - 0.75).abs() < 1e-12,
            "pure-auction accept rate must be auction sales / auction rounds, got {}",
            m.accept_rate()
        );
        m.shed = 20;
        // Attempts = 20 settled auctions + 20 shed.
        assert!((m.shed_rate() - 0.5).abs() < 1e-12);

        // Mixed traffic folds both markets into one rate.
        m.observations = 20;
        m.sales = 5;
        assert!((m.accept_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auction_ledger_merges_and_reports_the_hit_rate() {
        let mut a = ShardMetrics::new();
        a.auction.auctions = 10;
        a.auction.sales = 8;
        a.auction.reserve_hits = 2;
        a.auction.revenue = 16.0;
        a.auction.welfare = 20.0;
        a.auction.baseline_revenue = 12.0;
        assert!((a.reserve_hit_rate() - 0.25).abs() < 1e-12);
        // Auction rounds count as admission attempts in the shed rate.
        a.shed = 10;
        assert!((a.shed_rate() - 0.5).abs() < 1e-12);

        let mut b = ShardMetrics::new();
        b.auction.auctions = 5;
        b.auction.sales = 4;
        b.auction.reserve_hits = 4;
        a.merge(&b);
        assert_eq!(a.auction.auctions, 15);
        assert_eq!(a.auction.sales, 12);
        assert_eq!(a.auction.reserve_hits, 6);
        assert!((a.reserve_hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(ShardMetrics::new().reserve_hit_rate(), 0.0);
    }
}
