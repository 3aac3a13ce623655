//! # minshare — Information Sharing Across Private Databases
//!
//! A from-scratch Rust reproduction of Agrawal, Evfimievski & Srikant,
//! *"Information Sharing Across Private Databases"* (SIGMOD 2003): the
//! *minimal necessary information sharing* paradigm and its four
//! protocols, built on commutative encryption over quadratic residues
//! modulo a safe prime.
//!
//! ## Protocols
//!
//! | Module | Paper | `R` learns | `S` learns |
//! |---|---|---|---|
//! | [`intersection`] | §3 | `V_S ∩ V_R`, `\|V_S\|` | `\|V_R\|` |
//! | [`equijoin`] | §4 | above + `ext(v)` for matches | `\|V_R\|` |
//! | [`intersection_size`] | §5.1 | `\|V_S ∩ V_R\|`, `\|V_S\|` | `\|V_R\|` |
//! | [`equijoin_size`] | §5.2 | `\|T_S ⋈ T_R\|` + duplicate-class leak | dup. distribution of `V_R` |
//!
//! Every engine counts its operations in the paper's §6.1 cost units
//! ([`stats::OpCounters`]) and all traffic is byte-accounted, so the cost
//! analysis is verified *exactly*, not approximately.
//!
//! ## Engines
//!
//! The modules above are the serial, paper-level reference engines,
//! generic over any [`minshare_crypto::CommutativeScheme`]. The CLI and
//! the daemon ([`service`]) run the pooled engines in [`shard`]: one
//! receiver and one sender per protocol, which stream every list in
//! chunks ([`pipeline::PipelineConfig`]) with the exponentiations on a
//! shared [`minshare_crypto::EncryptPool`], and run the rounds once per
//! bucket of a client-elected bucket count `B`
//! ([`shard::ShardConfig`]). `B = 1` — the pipelined engine — sends no
//! hello and puts the serial message sequence on the wire.
//!
//! ## Quick start
//!
//! ```
//! use minshare::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A shared public group (tests use a small one; real deployments use
//! // QrGroup::well_known(1024)).
//! let mut rng = StdRng::seed_from_u64(42);
//! let group = QrGroup::generate(&mut rng, 64).unwrap();
//!
//! let vs: Vec<Vec<u8>> = [b"apple", b"grape"].map(|v| v.to_vec()).into();
//! let vr: Vec<Vec<u8>> = [b"grape", b"melon"].map(|v| v.to_vec()).into();
//!
//! let run = run_two_party(
//!     |t| {
//!         let mut rng = StdRng::seed_from_u64(1);
//!         intersection::run_sender(t, &group, &vs, &mut rng)
//!     },
//!     |t| {
//!         let mut rng = StdRng::seed_from_u64(2);
//!         intersection::run_receiver(t, &group, &vr, &mut rng)
//!     },
//! )
//! .unwrap();
//! assert_eq!(run.receiver.intersection, vec![b"grape".to_vec()]);
//! ```
//!
//! ## Applications
//!
//! The paper's two motivating applications are implemented end to end in
//! [`apps`]: selective document sharing (TF-IDF preprocessing + pairwise
//! intersection-size similarity join) and the three-party medical study
//! of Figure 2.
//!
//! The deliberately broken §3.1 hash protocol and its dictionary attack
//! live in [`naive`]; the §5.2 leak calculator lives in [`leakage`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod audit;
pub mod equijoin;
pub mod equijoin_size;
pub mod error;
pub mod intersection;
pub mod intersection_size;
pub mod leakage;
pub mod multiparty;
pub mod naive;
pub mod pipeline;
pub mod prepare;
pub mod runner;
pub mod service;
pub mod shard;
pub mod simrun;
pub mod spill;
pub mod stats;
pub mod tradeoff;
pub mod wire;

pub use error::ProtocolError;
pub use runner::{run_two_party, TwoPartyRun};
pub use simrun::{run_two_party_sim, SimOutcome, SimRunConfig, SimTwoPartyRun};
pub use stats::OpCounters;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::equijoin;
    pub use crate::equijoin_size;
    pub use crate::intersection;
    pub use crate::intersection_size;
    pub use crate::pipeline::{self, PipelineConfig};
    pub use crate::runner::{run_two_party, TwoPartyRun};
    pub use crate::service::{
        run_client_equijoin_sharded, run_client_equijoin_size_sharded,
        run_client_intersection_sharded, run_client_intersection_size_sharded, ProtocolKind,
        Service, SessionReport, SessionRequest,
    };
    pub use crate::shard::{self, ShardConfig};
    pub use crate::simrun::{run_two_party_sim, SimOutcome, SimRunConfig, SimTwoPartyRun};
    pub use crate::spill::{ExtSorter, SpillStats};
    pub use crate::stats::OpCounters;
    pub use crate::ProtocolError;
    pub use minshare_crypto::kcipher::{ExtCipher, HybridCipher, MulBlockCipher};
    pub use minshare_crypto::{EncryptPool, QrGroup};
    pub use minshare_privdb::{rowcodec, ColumnType, Schema, Table, Value};
}
