//! Two stores fed the same reports and lookups, one of them asked more.
//!
//! A question — a peek, a lookup's answer, a dashboard read — brings the
//! path's rate index up to its time and nothing else. So a store that was
//! asked more must be indistinguishable from one that was not, by
//! everything the store shows: `==`, its snapshot bytes, the dashboard,
//! the traffic counters and the loss signal.
//!
//! Used by `props.rs` beside it and, through `#[path]`, by the root
//! package's `tests/ctx_reference.rs`, which tier-1 runs.

use phi_core::context::{ContextStore, FlowSummary, PathKey, StoreConfig};
use phi_tcp::hook::ContextSnapshot;
use phi_workload::SeedRng;

pub struct Twins {
    quiet: ContextStore,
    asked: ContextStore,
    /// Every path either store has seen, in first-seen order.
    paths: Vec<PathKey>,
    /// Draws the extra questions.
    rng: SeedRng,
    /// How far from a step's time the extra questions reach.
    spread: u64,
}

impl Twins {
    pub fn new(cfg: StoreConfig, seed: u64, spread: u64) -> Twins {
        Twins {
            quiet: ContextStore::new(cfg),
            asked: ContextStore::new(cfg),
            paths: Vec::new(),
            rng: SeedRng::new(seed),
            spread: spread.max(1),
        }
    }

    fn saw(&mut self, path: PathKey) {
        if !self.paths.contains(&path) {
            self.paths.push(path);
        }
    }

    pub fn report(&mut self, path: PathKey, now: u64, summary: &FlowSummary) {
        self.saw(path);
        self.quiet.report(path, now, summary);
        self.asked.report(path, now, summary);
    }

    /// A lookup both are given; their answers must agree.
    pub fn lookup(&mut self, path: PathKey, now: u64) -> Result<(), String> {
        self.saw(path);
        let (q, a) = (self.quiet.lookup(path, now), self.asked.lookup(path, now));
        same(&[(path, q)], &[(path, a)], "lookup")
    }

    /// A peek both are given; their answers must agree.
    pub fn peek(&mut self, path: PathKey, now: u64) -> Result<(), String> {
        let (q, a) = (self.quiet.peek(path, now), self.asked.peek(path, now));
        same(&[(path, q)], &[(path, a)], "peek")
    }

    /// Now and then, a peek only `asked` is given: at the step's time,
    /// up to two spreads after it, or a little before it.
    pub fn maybe_ask_more(&mut self, now: u64) {
        if self.paths.is_empty() || !self.rng.chance(0.3) {
            return;
        }
        let path = self.paths[self.rng.index(self.paths.len())];
        let at = match self.rng.index(3) {
            0 => now,
            1 => now.saturating_add(self.rng.range_u64(0, 2 * self.spread)),
            _ => now.saturating_sub(self.rng.range_u64(0, self.spread / 8 + 1)),
        };
        self.asked.peek(path, at);
    }

    /// Whether anything the store shows tells the two apart at `now`.
    /// The dashboard is read from copies: reading it is a question too.
    pub fn check(&self, now: u64) -> Result<(), String> {
        if self.quiet != self.asked {
            return Err(format!("at {now}: the stores are not `==`"));
        }
        if self.quiet.encode_snapshot(0) != self.asked.encode_snapshot(0) {
            return Err(format!("at {now}: the snapshot bytes differ"));
        }
        same(
            &self.quiet.clone().snapshot(now),
            &self.asked.clone().snapshot(now),
            "dashboard",
        )
        .map_err(|why| format!("at {now}: {why}"))?;
        for &path in &self.paths {
            let (q, a) = (&self.quiet, &self.asked);
            if q.traffic_counters(path) != a.traffic_counters(path)
                || q.loss_signal(path).map(f64::to_bits) != a.loss_signal(path).map(f64::to_bits)
            {
                return Err(format!(
                    "at {now}: {path:?}'s counters or loss signal differ"
                ));
            }
        }
        Ok(())
    }
}

/// Context lists compared bit for bit.
fn same(
    quiet: &[(PathKey, ContextSnapshot)],
    asked: &[(PathKey, ContextSnapshot)],
    what: &str,
) -> Result<(), String> {
    let bits = |v: &[(PathKey, ContextSnapshot)]| -> Vec<(PathKey, u64, u64, u32)> {
        v.iter()
            .map(|(p, c)| {
                (
                    *p,
                    c.utilization.to_bits(),
                    c.queue_ms.to_bits(),
                    c.competing,
                )
            })
            .collect()
    };
    if bits(quiet) == bits(asked) {
        Ok(())
    } else {
        Err(format!("{what}: {quiet:?} against {asked:?}"))
    }
}
