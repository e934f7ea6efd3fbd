//! End-to-end benchmark of the running example (Figs. 4/6/8 and the
//! Fig. 1 adapter baseline): in memory over the paper's Orders, over a
//! large Orders table, and durable over paged storage with retained
//! instance history. See `README.md` in this directory.

mod durable;
pub mod report;
mod run;
mod trace;
mod world;

pub use run::{run, Config, Report, Sizes, Workload};
