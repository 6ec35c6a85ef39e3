//! The five workloads: shapes, seeded transaction streams and the
//! open-loop arrival schedule. Nothing here touches the product.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accounts per 512-byte page (one-word cells).
pub const ACCOUNTS_PER_PAGE: u64 = 64;

/// What the cluster under a workload looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One node, one integer array of `accounts` cells.
    Single,
    /// Three nodes with one array each; debit and credit always land on
    /// two different nodes, the application runs on node 1.
    TwoPc { per_node: u64 },
    /// Three nodes, one hash shard led by node 1 and followed by nodes 2
    /// and 3, routed from node 3.
    Replicated,
}

/// One workload: its cluster shape, transaction mix and frozen open rate.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub topology: Topology,
    /// Total accounts (across nodes for [`Topology::TwoPc`]).
    pub accounts: u64,
    /// Accounts in the hot set that 80% of picks come from (the whole
    /// array when there is no skew).
    pub hot_accounts: u64,
    /// Open-slice arrivals per second, frozen: a tenth to a third of the
    /// closed-loop throughput measured on the reference VM, so that a
    /// transaction seldom queues behind another.
    pub open_rate: u32,
    /// Transactions run (and discarded) at the end of set-up.
    pub warmup_txns: u32,
    /// Injected one-way delay of datagrams and session messages.
    pub net_delay_us: u64,
    /// Injected latency of every log force.
    pub force_delay_us: u64,
    /// Injected busy-wait of every sector read or write.
    pub disk_delay_us: u64,
}

/// Share of transactions that are read-only two-account audits.
pub const AUDIT_PCT: u32 = 20;

/// Every workload, in the order `BENCHMARK.json` declares them.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "bank_local",
        topology: Topology::Single,
        accounts: 4096,
        hot_accounts: 4096,
        open_rate: 4000,
        warmup_txns: 2000,
        net_delay_us: 0,
        force_delay_us: 0,
        disk_delay_us: 0,
    },
    Spec {
        name: "bank_hot",
        topology: Topology::Single,
        accounts: 4,
        hot_accounts: 4,
        open_rate: 3000,
        warmup_txns: 2000,
        net_delay_us: 0,
        force_delay_us: 0,
        disk_delay_us: 0,
    },
    Spec {
        name: "bank_paged",
        topology: Topology::Single,
        accounts: 5000 * ACCOUNTS_PER_PAGE,
        hot_accounts: 1000 * ACCOUNTS_PER_PAGE,
        open_rate: 2000,
        warmup_txns: 2000,
        net_delay_us: 0,
        force_delay_us: 0,
        disk_delay_us: 100,
    },
    Spec {
        name: "bank_2pc",
        topology: Topology::TwoPc { per_node: 1024 },
        accounts: 3 * 1024,
        hot_accounts: 3 * 1024,
        open_rate: 150,
        warmup_txns: 100,
        net_delay_us: 200,
        force_delay_us: 500,
        disk_delay_us: 0,
    },
    Spec {
        name: "bank_replicated",
        topology: Topology::Replicated,
        accounts: 1024,
        hot_accounts: 1024,
        open_rate: 100,
        warmup_txns: 100,
        net_delay_us: 200,
        force_delay_us: 500,
        disk_delay_us: 0,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One transaction of the stream. `lo < hi` always: accounts are touched
/// in index order, so no two transactions can deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `add(lo, d_lo); add(hi, -d_lo)` — one unit moves between the two.
    Transfer { lo: u64, hi: u64, d_lo: i64 },
    /// Two shared-locked reads.
    Audit { lo: u64, hi: u64 },
}

impl Op {
    pub fn is_audit(&self) -> bool {
        matches!(self, Op::Audit { .. })
    }
}

/// A seeded stream of transactions for one client.
pub struct OpStream {
    spec: Spec,
    rng: StdRng,
}

impl OpStream {
    /// `stream` separates the clients (and phases) of one run; the same
    /// `(seed, stream)` always yields the same transactions.
    pub fn new(spec: &Spec, seed: u64, stream: u64) -> Self {
        let mixed = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1);
        Self { spec: *spec, rng: StdRng::seed_from_u64(mixed) }
    }

    fn pick(&mut self) -> u64 {
        let s = &self.spec;
        if s.hot_accounts < s.accounts && self.rng.gen_range(0u32..100) < 80 {
            self.rng.gen_range(0..s.hot_accounts)
        } else {
            self.rng.gen_range(0..s.accounts)
        }
    }

    /// Two distinct accounts; on different nodes under [`Topology::TwoPc`].
    fn pair(&mut self) -> (u64, u64) {
        if let Topology::TwoPc { per_node } = self.spec.topology {
            let n1 = self.rng.gen_range(0u64..3);
            let n2 = (n1 + self.rng.gen_range(1u64..3)) % 3;
            let a = n1 * per_node + self.rng.gen_range(0..per_node);
            let b = n2 * per_node + self.rng.gen_range(0..per_node);
            return (a, b);
        }
        let a = self.pick();
        loop {
            let b = self.pick();
            if b != a {
                return (a, b);
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        let audit = self.rng.gen_range(0u32..100) < AUDIT_PCT;
        let (from, to) = self.pair();
        let (lo, hi) = (from.min(to), from.max(to));
        if audit {
            Op::Audit { lo, hi }
        } else {
            Op::Transfer { lo, hi, d_lo: if from == lo { -1 } else { 1 } }
        }
    }
}

/// Due times (seconds from the phase start) of an open phase: Poisson
/// arrivals at `rate` per second over `phase_s` seconds, fixed by `seed`
/// before the phase starts, so a stall in the system cannot slow them.
pub fn arrival_schedule(seed: u64, rate: u32, phase_s: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_0F0F_F0F0);
    let mut due = Vec::with_capacity((f64::from(rate) * phase_s) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / f64::from(rate);
        if t >= phase_s {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_schedule() {
        for spec in &SPECS {
            let mut a = OpStream::new(spec, 7, 1);
            let mut b = OpStream::new(spec, 7, 1);
            let mut c = OpStream::new(spec, 8, 1);
            let xs: Vec<Op> = (0..200).map(|_| a.next_op()).collect();
            let ys: Vec<Op> = (0..200).map(|_| b.next_op()).collect();
            let zs: Vec<Op> = (0..200).map(|_| c.next_op()).collect();
            assert_eq!(xs, ys, "{}", spec.name);
            assert_ne!(xs, zs, "{}", spec.name);
        }
        assert_eq!(arrival_schedule(3, 500, 2.0), arrival_schedule(3, 500, 2.0));
        assert_ne!(arrival_schedule(3, 500, 2.0), arrival_schedule(4, 500, 2.0));
    }

    #[test]
    fn ops_are_ordered_in_range_and_cross_node_under_2pc() {
        for spec in &SPECS {
            let mut s = OpStream::new(spec, 1, 0);
            let mut audits = 0;
            for _ in 0..2000 {
                let op = s.next_op();
                let (lo, hi) = match op {
                    Op::Transfer { lo, hi, d_lo } => {
                        assert!(d_lo == 1 || d_lo == -1);
                        (lo, hi)
                    }
                    Op::Audit { lo, hi } => {
                        audits += 1;
                        (lo, hi)
                    }
                };
                assert!(lo < hi && hi < spec.accounts, "{}: {op:?}", spec.name);
                if let Topology::TwoPc { per_node } = spec.topology {
                    assert_ne!(lo / per_node, hi / per_node, "debit and credit share a node");
                }
            }
            assert!((300..500).contains(&audits), "{}: {audits} audits of 2000", spec.name);
        }
    }

    #[test]
    fn paged_picks_favour_the_hot_set() {
        let spec = spec("bank_paged").unwrap();
        let mut s = OpStream::new(spec, 5, 0);
        let hot = (0..4000).filter(|_| s.pick() < spec.hot_accounts).count();
        // 80% directly plus a fifth of the uniform remainder: 84%.
        assert!((3200..3520).contains(&hot), "{hot} of 4000 picks were hot");
    }

    #[test]
    fn schedule_is_increasing_bounded_and_near_the_rate() {
        let due = arrival_schedule(11, 1000, 4.0);
        assert!(due.windows(2).all(|w| w[0] < w[1]));
        assert!(due.iter().all(|&t| (0.0..4.0).contains(&t)));
        assert!((3700..4300).contains(&due.len()), "{} arrivals", due.len());
    }
}
