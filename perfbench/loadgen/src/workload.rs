//! Workload definitions, their seeded inputs, and the plaintext oracle
//! every session answer is checked against.

use std::collections::{BTreeMap, BTreeSet};

use minshare::equijoin_size::DuplicateDistribution;
use minshare::prelude::ProtocolKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Equijoin payload record length; the daemon's default.
pub const RECORD_LEN: usize = 64;

/// Sort budget given to both sides of a spilling workload.
pub const SPILL_BUDGET: usize = 64 << 10;

/// One session's work: which protocol, on which client set, sharded how.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub kind: ProtocolKind,
    pub set: usize,
    /// Bucket count the client elects (1 = unsharded).
    pub shards: u32,
}

/// One connection's closed-loop session stream.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// `small` or `bulk`; a single-tenant workload's one tenant is both.
    pub class: &'static str,
    /// Client sets the jobs index into.
    pub sets: Vec<Vec<Vec<u8>>>,
    /// Jobs, taken round-robin.
    pub jobs: Vec<Job>,
    /// Client sort budget for sharded sessions.
    pub mem_budget: Option<usize>,
    /// Keeps opening sessions after the deadline while another tenant
    /// is still busy, so the contention it sees stays constant.
    pub companion: bool,
}

/// A generated workload: the daemon's list plus one tenant per
/// connection.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub bits: u64,
    /// `(value, payload)` lines of the daemon's values file; duplicates
    /// allowed.
    pub daemon: Vec<(Vec<u8>, Vec<u8>)>,
    /// The daemon's `--mem-budget`, when the workload spills.
    pub daemon_mem_budget: Option<usize>,
    pub tenants: Vec<Tenant>,
    /// The percentile `*_tail_ms` report: what [`crate::stats::tail_percentile`]
    /// resolves to at a 30 s run on a 2-core host. `bulk_spill_1024` has
    /// too few sessions for a tail and reports the median.
    pub tail_percentile: u32,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["interactive_mix_768", "bulk_spill_1024", "tenants_768"];

const ALL_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Intersection,
    ProtocolKind::Equijoin,
    ProtocolKind::IntersectionSize,
    ProtocolKind::EquijoinSize,
];

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut gen = Gen::new(name, seed);
    let w = match name {
        "interactive_mix_768" => {
            let daemon = gen.daemon_list(40, 4, true);
            let distinct = distinct_values(&daemon);
            let sets = (0..16).map(|_| gen.client_set(&distinct, 4, 4)).collect();
            let jobs = ALL_KINDS
                .iter()
                .map(|&kind| Job {
                    kind,
                    set: 0,
                    shards: 1,
                })
                .collect();
            Workload {
                name: "interactive_mix_768",
                tail_percentile: 90,
                bits: 768,
                daemon,
                daemon_mem_budget: None,
                tenants: vec![Tenant {
                    class: "all",
                    sets,
                    jobs,
                    mem_budget: None,
                    companion: false,
                }],
            }
        }
        "bulk_spill_1024" => {
            let daemon = gen.daemon_list(2048, 0, false);
            let distinct = distinct_values(&daemon);
            let sets = (0..2)
                .map(|_| gen.client_set(&distinct, 1024, 1024))
                .collect();
            Workload {
                name: "bulk_spill_1024",
                tail_percentile: 50,
                bits: 1024,
                daemon,
                daemon_mem_budget: Some(SPILL_BUDGET),
                tenants: vec![Tenant {
                    class: "all",
                    sets,
                    jobs: vec![Job {
                        kind: ProtocolKind::Intersection,
                        set: 0,
                        shards: 8,
                    }],
                    mem_budget: Some(SPILL_BUDGET),
                    companion: false,
                }],
            }
        }
        "tenants_768" => {
            let daemon = gen.daemon_list(44, 4, true);
            let distinct = distinct_values(&daemon);
            let bulk_sets = (0..2)
                .map(|_| gen.client_set(&distinct, 22, 1002))
                .collect();
            let small_sets = (0..16).map(|_| gen.client_set(&distinct, 4, 4)).collect();
            Workload {
                name: "tenants_768",
                tail_percentile: 90,
                bits: 768,
                daemon,
                daemon_mem_budget: Some(SPILL_BUDGET),
                tenants: vec![
                    Tenant {
                        class: "bulk",
                        sets: bulk_sets,
                        jobs: vec![Job {
                            kind: ProtocolKind::Equijoin,
                            set: 0,
                            shards: 8,
                        }],
                        mem_budget: Some(SPILL_BUDGET),
                        companion: false,
                    },
                    Tenant {
                        class: "small",
                        sets: small_sets,
                        jobs: vec![Job {
                            kind: ProtocolKind::IntersectionSize,
                            set: 0,
                            shards: 1,
                        }],
                        mem_budget: None,
                        companion: true,
                    },
                ],
            }
        }
        _ => return None,
    };
    Some(w)
}

impl Tenant {
    /// The `n`-th session of this tenant: jobs round-robin, and each full
    /// round moves on to the next client set.
    pub fn job(&self, n: usize) -> Job {
        let mut job = self.jobs[n % self.jobs.len()];
        job.set = (n / self.jobs.len()) % self.sets.len();
        job
    }
}

/// Seeded value generator; every workload draws from its own stream.
struct Gen {
    rng: StdRng,
    used: BTreeSet<Vec<u8>>,
}

impl Gen {
    fn new(name: &str, seed: u64) -> Self {
        // FNV-1a of the name keeps the workloads' streams apart.
        let salt = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        Gen {
            rng: StdRng::seed_from_u64(seed ^ salt),
            used: BTreeSet::new(),
        }
    }

    /// A value never produced before by this generator.
    fn fresh(&mut self, prefix: &str) -> Vec<u8> {
        loop {
            let v = format!("{prefix}{:016x}", self.rng.random::<u64>()).into_bytes();
            if self.used.insert(v.clone()) {
                return v;
            }
        }
    }

    /// `distinct` values, then `dups` of them repeated with a different
    /// payload (the equijoin engines keep the last payload of a
    /// duplicate).
    fn daemon_list(
        &mut self,
        distinct: usize,
        dups: usize,
        payloads: bool,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out: Vec<(Vec<u8>, Vec<u8>)> = (0..distinct)
            .map(|_| {
                let v = self.fresh("s");
                let p = if payloads { self.payload() } else { Vec::new() };
                (v, p)
            })
            .collect();
        for _ in 0..dups {
            let i = self.rng.random_range(0..distinct);
            let v = out[i].0.clone();
            let p = if payloads { self.payload() } else { Vec::new() };
            out.push((v, p));
        }
        out
    }

    fn payload(&mut self) -> Vec<u8> {
        let words = self.rng.random_range(1..4usize);
        let mut p = String::from("row");
        for _ in 0..words {
            p.push_str(&format!(":{:012x}", self.rng.random::<u64>() >> 16));
        }
        p.into_bytes()
    }

    /// `shared` values drawn from `daemon` plus `fresh` new ones,
    /// shuffled, no duplicates.
    fn client_set(&mut self, daemon: &[Vec<u8>], shared: usize, fresh: usize) -> Vec<Vec<u8>> {
        let mut pool: Vec<Vec<u8>> = daemon.to_vec();
        let mut out = Vec::with_capacity(shared + fresh);
        for _ in 0..shared.min(pool.len()) {
            let i = self.rng.random_range(0..pool.len());
            out.push(pool.swap_remove(i));
        }
        for _ in 0..fresh {
            out.push(self.fresh("r"));
        }
        for i in (1..out.len()).rev() {
            let j = self.rng.random_range(0..=i);
            out.swap(i, j);
        }
        out
    }
}

/// Distinct values of a daemon list, in first-occurrence order.
fn distinct_values(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut seen = BTreeSet::new();
    entries
        .iter()
        .filter(|(v, _)| seen.insert(v.clone()))
        .map(|(v, _)| v.clone())
        .collect()
}

/// What a correct session returns, computed in plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    Intersection {
        values: Vec<Vec<u8>>,
        peer_set_size: usize,
    },
    Equijoin {
        matches: Vec<(Vec<u8>, Vec<u8>)>,
        peer_set_size: usize,
    },
    IntersectionSize {
        size: usize,
        peer_set_size: usize,
    },
    EquijoinSize {
        join_size: u64,
        peer_multiset_size: usize,
        peer_duplicates: DuplicateDistribution,
        class_intersections: BTreeMap<(u64, u64), u64>,
    },
}

fn multiplicities(values: impl IntoIterator<Item = Vec<u8>>) -> BTreeMap<Vec<u8>, u64> {
    let mut m = BTreeMap::new();
    for v in values {
        *m.entry(v).or_insert(0) += 1;
    }
    m
}

/// The plaintext ground truth of one session of `kind` between the
/// daemon's list and `client`.
pub fn oracle(kind: ProtocolKind, daemon: &[(Vec<u8>, Vec<u8>)], client: &[Vec<u8>]) -> Answer {
    let s = multiplicities(daemon.iter().map(|(v, _)| v.clone()));
    let r = multiplicities(client.iter().cloned());
    let common: Vec<Vec<u8>> = r.keys().filter(|v| s.contains_key(*v)).cloned().collect();
    match kind {
        ProtocolKind::Intersection => Answer::Intersection {
            values: common,
            peer_set_size: s.len(),
        },
        ProtocolKind::Equijoin => {
            // Every equijoin engine builds its payload table by collecting
            // the entries into a map, so a duplicate's last payload wins.
            let last: BTreeMap<&[u8], &[u8]> = daemon
                .iter()
                .map(|(v, p)| (v.as_slice(), p.as_slice()))
                .collect();
            Answer::Equijoin {
                matches: common
                    .iter()
                    .map(|v| (v.clone(), last[v.as_slice()].to_vec()))
                    .collect(),
                peer_set_size: s.len(),
            }
        }
        ProtocolKind::IntersectionSize => Answer::IntersectionSize {
            size: common.len(),
            peer_set_size: s.len(),
        },
        ProtocolKind::EquijoinSize => {
            let mut peer_duplicates = DuplicateDistribution::new();
            for &d in s.values() {
                *peer_duplicates.entry(d).or_insert(0) += 1;
            }
            let mut class_intersections = BTreeMap::new();
            for v in &common {
                *class_intersections.entry((r[v], s[v])).or_insert(0) += 1;
            }
            Answer::EquijoinSize {
                join_size: common.iter().map(|v| r[v] * s[v]).sum(),
                peer_multiset_size: daemon.len(),
                peer_duplicates,
                class_intersections,
            }
        }
    }
}

/// The set sizes the §6.1 `Ce` formula takes for one session: distinct
/// sizes, or multiset sizes for the multiset protocol.
pub fn cost_sizes(
    kind: ProtocolKind,
    daemon: &[(Vec<u8>, Vec<u8>)],
    client: &[Vec<u8>],
) -> (u64, u64) {
    if kind.discloses_multiset() {
        (daemon.len() as u64, client.len() as u64)
    } else {
        let s = multiplicities(daemon.iter().map(|(v, _)| v.clone())).len();
        let r = multiplicities(client.iter().cloned()).len();
        (s as u64, r as u64)
    }
}

/// `|V_S| + |V_R|` of one session, the element count throughput uses.
pub fn elements(daemon: &[(Vec<u8>, Vec<u8>)], client: &[Vec<u8>]) -> u64 {
    (daemon.len() + client.len()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    fn daemon() -> Vec<(Vec<u8>, Vec<u8>)> {
        vec![
            (b("apple"), b("p1")),
            (b("kiwi"), b("p2")),
            (b("apple"), b("p3")),
            (b("pear"), b("p4")),
            (b("apple"), b("p5")),
        ]
    }

    #[test]
    fn oracle_intersection_and_size_use_distinct_sets() {
        let client = vec![b("pear"), b("fig"), b("apple")];
        assert_eq!(
            oracle(ProtocolKind::Intersection, &daemon(), &client),
            Answer::Intersection {
                values: vec![b("apple"), b("pear")],
                peer_set_size: 3,
            }
        );
        assert_eq!(
            oracle(ProtocolKind::IntersectionSize, &daemon(), &client),
            Answer::IntersectionSize {
                size: 2,
                peer_set_size: 3,
            }
        );
    }

    #[test]
    fn oracle_equijoin_keeps_the_last_payload_of_a_duplicate() {
        let client = vec![b("apple"), b("kiwi"), b("plum")];
        assert_eq!(
            oracle(ProtocolKind::Equijoin, &daemon(), &client),
            Answer::Equijoin {
                matches: vec![(b("apple"), b("p5")), (b("kiwi"), b("p2"))],
                peer_set_size: 3,
            }
        );
    }

    #[test]
    fn oracle_equijoin_size_counts_the_multiset_join() {
        let client = vec![b("apple"), b("apple"), b("pear"), b("fig")];
        let Answer::EquijoinSize {
            join_size,
            peer_multiset_size,
            peer_duplicates,
            class_intersections,
        } = oracle(ProtocolKind::EquijoinSize, &daemon(), &client)
        else {
            panic!("wrong answer kind");
        };
        // apple: 2 on the client × 3 on the daemon; pear: 1 × 1.
        assert_eq!(join_size, 7);
        assert_eq!(peer_multiset_size, 5);
        assert_eq!(peer_duplicates, BTreeMap::from([(1, 2), (3, 1)]));
        assert_eq!(
            class_intersections,
            BTreeMap::from([((2, 3), 1), ((1, 1), 1)])
        );
    }

    #[test]
    fn cost_sizes_follow_the_protocol() {
        let client = vec![b("a"), b("a"), b("b")];
        assert_eq!(
            cost_sizes(ProtocolKind::Intersection, &daemon(), &client),
            (3, 2)
        );
        assert_eq!(
            cost_sizes(ProtocolKind::EquijoinSize, &daemon(), &client),
            (5, 3)
        );
    }

    #[test]
    fn workloads_are_a_function_of_the_seed() {
        for name in NAMES {
            let a = build(name, 7).unwrap();
            let b = build(name, 7).unwrap();
            let c = build(name, 8).unwrap();
            assert_eq!(a.daemon, b.daemon);
            assert_eq!(a.tenants[0].sets, b.tenants[0].sets);
            assert_ne!(a.daemon, c.daemon);
        }
        assert!(build("nope", 1).is_none());
    }

    #[test]
    fn client_sets_overlap_the_daemon_by_half() {
        let w = build("interactive_mix_768", 3).unwrap();
        let distinct = distinct_values(&w.daemon);
        assert!(
            distinct.len() < w.daemon.len(),
            "daemon list has duplicates"
        );
        for set in &w.tenants[0].sets {
            let shared = set.iter().filter(|v| distinct.contains(v)).count();
            assert_eq!((set.len(), shared), (8, 4));
        }
        let bulk = build("bulk_spill_1024", 3).unwrap();
        let set = &bulk.tenants[0].sets[0];
        assert_eq!(set.len(), 2048);
        assert_eq!(
            oracle(ProtocolKind::IntersectionSize, &bulk.daemon, set),
            Answer::IntersectionSize {
                size: 1024,
                peer_set_size: 2048,
            }
        );
    }

    #[test]
    fn jobs_round_robin_then_advance_the_set() {
        let w = build("interactive_mix_768", 1).unwrap();
        let t = &w.tenants[0];
        let kinds: Vec<_> = (0..5).map(|n| t.job(n).kind).collect();
        assert_eq!(&kinds[..4], &ALL_KINDS);
        assert_eq!((t.job(3).set, t.job(4).set), (0, 1));
    }
}
