//! Dataset construction shared across experiments.

use crate::ExpConfig;
use exq_core::constraints::SecurityConstraint;
use exq_core::scheme::SchemeKind;
use exq_core::system::{HostedDatabase, OutsourceConfig, Outsourcer};
use exq_workload::{nasa, xmark};
use exq_xml::Document;

/// A named dataset: document plus its security constraints.
pub struct Dataset {
    pub name: &'static str,
    pub doc: Document,
    pub constraints: Vec<SecurityConstraint>,
}

impl Dataset {
    pub fn xmark(cfg: &ExpConfig) -> Dataset {
        Dataset {
            name: "xmark",
            doc: xmark::generate(&xmark::XmarkConfig {
                target_bytes: cfg.size_bytes,
                seed: cfg.seed,
            }),
            constraints: xmark::constraints(),
        }
    }

    pub fn nasa(cfg: &ExpConfig) -> Dataset {
        Dataset {
            name: "nasa",
            doc: nasa::generate(&nasa::NasaConfig {
                target_bytes: cfg.size_bytes,
                seed: cfg.seed,
            }),
            constraints: nasa::constraints(),
        }
    }

    /// Both paper datasets.
    pub fn both(cfg: &ExpConfig) -> Vec<Dataset> {
        vec![Dataset::xmark(cfg), Dataset::nasa(cfg)]
    }

    /// Outsources under one scheme. The server caches are disabled: the
    /// paper experiments measure recomputation, and repeat trials of the
    /// same query must not degenerate into response-cache hits.
    pub fn host(&self, kind: SchemeKind, seed: u64) -> HostedDatabase {
        let mut hosted = Outsourcer::new(OutsourceConfig::default())
            .outsource(&self.doc, &self.constraints, kind, seed)
            .expect("outsourcing failed");
        hosted.server.set_cache_entries(Some(0));
        hosted
    }
}
