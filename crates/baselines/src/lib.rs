//! # aggclust-baselines
//!
//! The clustering algorithms the paper uses as *inputs* to aggregation and
//! as comparators, implemented from scratch:
//!
//! * [`kmeans`](mod@kmeans) — Lloyd's algorithm with k-means++ seeding and restarts
//!   (the paper's Matlab `kmeans`; input generator for Figures 3–5),
//! * [`hierarchical`](mod@hierarchical) — single / complete / average / Ward linkage on point
//!   data (the paper's Matlab `linkage`; the other four inputs of Figure 3),
//! * [`rock`](mod@rock) — the ROCK categorical clusterer of Guha, Rastogi & Shim
//!   (comparator in Tables 2–3),
//! * [`limbo`](mod@limbo) — the LIMBO information-bottleneck categorical clusterer of
//!   Andritsos et al. (comparator in Tables 2–3).
//!
//! ```
//! use aggclust_baselines::kmeans::{kmeans, KMeansParams};
//! use aggclust_baselines::hierarchical::{hierarchical, HierarchicalParams, LinkageMethod};
//!
//! let points = vec![
//!     vec![0.0, 0.0], vec![0.1, 0.0], vec![0.0, 0.1],
//!     vec![5.0, 5.0], vec![5.1, 5.0], vec![5.0, 5.1],
//! ];
//! let km = kmeans(&points, &KMeansParams::new(2, 42)).clustering;
//! let hc = hierarchical(&points, HierarchicalParams::new(LinkageMethod::Average, 2));
//! assert_eq!(km, hc); // both separate the two blobs
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod hierarchical;
pub mod kmeans;
pub mod limbo;
pub mod rock;

pub use hierarchical::{hierarchical, HierarchicalParams};
pub use kmeans::{kmeans, KMeansParams};
pub use limbo::{limbo, LimboParams};
pub use rock::{rock, RockParams};
