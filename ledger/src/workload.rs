//! The four workloads: datasets, hosting shape and the operation schedule.
//!
//! Everything here is a pure function of `--seed`: the same seed gives the
//! same document, the same query constants and the same operation order.

use exq_core::constraints::SecurityConstraint;
use exq_workload::values::FIRST_NAMES;
use exq_workload::{generate_queries, hospital, xmark, QueryClass};
use exq_xml::Document;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Which generator builds the plaintext document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dataset {
    Xmark { target_bytes: usize },
    Hospital { patients: usize },
}

/// What one pass of the schedule is made of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Qs+Qm+Ql path queries, each class taken whole.
    Scan,
    /// Eight value-predicate templates with three constants each.
    Point,
    /// A fixed set of queries that ship hundreds of sealed blocks each.
    BlockFetch,
    /// Reads over 24 fixed `Point` queries at Zipf(1) frequencies, then a
    /// mutation burst.
    ReadWrite,
}

/// One workload: its data, how it is hosted and what it runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dataset: Dataset,
    pub shape: Shape,
    /// Hosted through `PagedDb` with the pool at a quarter of the disk
    /// footprint; otherwise fully resident.
    pub paged: bool,
    pub page_size: usize,
    /// Server response/range cache entries; 0 is the paper's recompute
    /// protocol.
    pub cache_entries: usize,
}

pub const NAMES: [&str; 4] = [
    "xmark_scan",
    "hospital_point",
    "hospital_paged",
    "hospital_rw",
];

/// The workload called `name`, at full or smoke scale.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let hospital = Dataset::Hospital {
        patients: if smoke { 200 } else { 1200 },
    };
    // The smoke database is small enough that 8 KiB pages would leave a
    // quarter-size pool at its frame floor; smaller pages keep it paging.
    let page_size = if smoke { 1024 } else { 8192 };
    let base = Spec {
        name: "",
        dataset: hospital,
        shape: Shape::Point,
        paged: false,
        page_size,
        cache_entries: 0,
    };
    Some(match name {
        "xmark_scan" => Spec {
            name: NAMES[0],
            dataset: Dataset::Xmark {
                target_bytes: if smoke { 256 << 10 } else { 2 << 20 },
            },
            shape: Shape::Scan,
            ..base
        },
        "hospital_point" => Spec {
            name: NAMES[1],
            ..base
        },
        "hospital_paged" => Spec {
            name: NAMES[2],
            shape: Shape::BlockFetch,
            paged: true,
            ..base
        },
        "hospital_rw" => Spec {
            name: NAMES[3],
            shape: Shape::ReadWrite,
            paged: true,
            cache_entries: 1024,
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    pub fn generate(&self, seed: u64) -> Document {
        match self.dataset {
            Dataset::Xmark { target_bytes } => {
                xmark::generate(&xmark::XmarkConfig { target_bytes, seed })
            }
            Dataset::Hospital { patients } => hospital::scaled(patients, seed),
        }
    }

    pub fn constraints(&self) -> Vec<SecurityConstraint> {
        match self.dataset {
            Dataset::Xmark { .. } => xmark::constraints(),
            Dataset::Hospital { .. } => hospital::constraints(),
        }
    }
}

/// One step of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query(String),
    /// Insert `record` under `/hospital`; `seed` drives the client's
    /// labelling and OPESS choices.
    Insert {
        record: String,
        seed: u64,
    },
    /// Delete the subtrees `query` selects.
    Delete {
        query: String,
    },
    /// One `store::tend` of the tenant, in place of the timer thread.
    Tend,
}

/// Reads aimed at between two mutation bursts of `hospital_rw`; see
/// `rw_read_counts` for the number it comes to. Every one of the 24 queries
/// is read in every interval and misses once after the burst's
/// invalidation, which puts the response-cache hit ratio at 0.84.
pub const RW_READS_PER_BURST: usize = 150;
/// Inserts (and then deletes) per burst. `store::tend` runs after the
/// burst's eight mutations, so every pass ends on one.
pub const RW_BURST: usize = 4;

/// How often the query of each Zipf rank is read between two bursts:
/// `RW_READS_PER_BURST` shared out in proportion to 1/rank, to the nearest
/// whole read and at least one. Fixing the counts rather than drawing each
/// read keeps the mix — reply bytes, hits and misses per interval — the same
/// under every seed; the seed decides the order.
pub fn rw_read_counts() -> [usize; 24] {
    let harmonic: f64 = (1..=24).map(|rank| 1.0 / rank as f64).sum();
    std::array::from_fn(|i| {
        let share = RW_READS_PER_BURST as f64 / ((i + 1) as f64 * harmonic);
        (share.round() as usize).max(1)
    })
}

/// Zipf rank → index into `read_write_queries` (constant × 8 + template).
///
/// The order puts the median read in the middle of a plateau. The query
/// `//patient[age > 50]/pname` takes the top rank and 40 of the 151 reads:
/// half the patients under every seed, 580 sealed blocks, a cache hit of
/// 3.4 ms that is codec, socket, event loop and the client's decrypt and
/// post-process. The sixteen queries whose hits cost less (the six `SSN = V`
/// lookups at 0.1 ms, up to the `disease` ones at 2.5 ms) hold 74 reads and
/// the seven whose hits cost more (3.5 to 12 ms) hold 37, so of the reads in
/// ascending order the 59th to the 97th are hits on the top query and the
/// median, the 76th, sits among them under any seed. The coverage-above-
/// 500000 query, whose hit costs within a tenth of the top query's, is read
/// twice.
const RW_RANK: [usize; 24] = [
    8, // //patient[age > 50]/pname
    2, 10, // SSN lookups
    0, 5, // age > 30, coverage > 167000: 1000 blocks
    18, 6, 1, 14, 15, 9, 23, 17, 3, 4, 13, // alternating cheaper and dearer
    11, 19, 12, 20, 16, 21, 22, 7, // the rest of the cheaper ones
];

const DISEASES: [&str; 5] = ["diarrhea", "leukemia", "flu", "measles", "asthma"];
const DOCTORS: [&str; 5] = ["Smith", "Brown", "Walker", "Lee", "Garcia"];

/// The schedule generator of one workload over one document.
pub struct Schedule {
    spec: Spec,
    seed: u64,
    /// `Point` and `ReadWrite`: values to draw equality constants from.
    ssns: Vec<String>,
    /// The queries every pass reads, fixed when the schedule is made.
    queries: Vec<String>,
}

impl Schedule {
    pub fn new(spec: Spec, doc: Arc<Document>, seed: u64) -> Schedule {
        let ssns = match spec.shape {
            Shape::Point | Shape::ReadWrite => doc
                .elements_by_tag("SSN")
                .into_iter()
                .map(|n| doc.text_value(n))
                .collect(),
            _ => Vec::new(),
        };
        let mut schedule = Schedule {
            spec,
            seed,
            ssns,
            queries: Vec::new(),
        };
        schedule.queries = match spec.shape {
            Shape::Scan => scan_queries(&doc, schedule.rng(0, 3).gen_range(0..u64::MAX)),
            Shape::BlockFetch => block_fetch_queries(),
            Shape::Point => schedule.point_queries(),
            Shape::ReadWrite => schedule.read_write_queries(),
        };
        schedule
    }

    fn rng(&self, pass: u64, stream: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                ^ pass.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        )
    }

    /// The operations of pass number `pass`, in order. Every pass is the
    /// same operations; only the records `ReadWrite` inserts change.
    pub fn pass(&self, pass: u64) -> Vec<Op> {
        match self.spec.shape {
            Shape::ReadWrite => self.read_write_pass(pass),
            _ => self.queries.iter().cloned().map(Op::Query).collect(),
        }
    }

    /// Eight templates × three constants, template-major within a constant;
    /// the same 24 queries every pass. Range constants sit at the middle of
    /// each third of the attribute's domain, so selectivity — and with it
    /// reply size and server work — does not move with the seed; the
    /// equality constants are drawn from the seeded data.
    pub fn point_queries(&self) -> Vec<String> {
        let mut rng = self.rng(0, 1);
        let third = |lo: u64, hi: u64, i: u64| {
            let width = (hi - lo + 1) / 3;
            lo + i * width + width / 2
        };
        // Three different values from a pool of `len`.
        let mut distinct = |len: usize| {
            let mut picks: Vec<usize> = Vec::with_capacity(3);
            while picks.len() < 3 {
                let i = rng.gen_range(0..len);
                if !picks.contains(&i) {
                    picks.push(i);
                }
            }
            picks
        };
        let (ssns, names, diseases) = (
            distinct(self.ssns.len()),
            distinct(FIRST_NAMES.len()),
            distinct(DISEASES.len()),
        );
        let mut out = Vec::with_capacity(24);
        for i in 0..3 {
            // `hospital::scaled` draws ages from 20..80 and coverage from
            // 1000..1_000_000 in steps of 1000.
            let age = third(20, 79, i as u64);
            let coverage = third(1, 999, i as u64) * 1000;
            let ssn = &self.ssns[ssns[i]];
            let name = FIRST_NAMES[names[i]];
            let disease = DISEASES[diseases[i]];
            out.push(format!("//patient[age > {age}]/pname"));
            out.push(format!("//patient[age = {age}]//doctor"));
            out.push(format!("//patient[SSN = '{ssn}']/pname"));
            out.push(format!("//patient[pname = '{name}']/SSN"));
            out.push(format!("//treat[disease = '{disease}']/doctor"));
            out.push(format!("//policy[@coverage > {coverage}]"));
            out.push(format!("//patient[age > {age}]/insurance/policy"));
            out.push(format!(
                "//patient[.//policy[@coverage < {coverage}]]/pname"
            ));
        }
        out
    }

    /// `point_queries` with the three `age = K` lookups replaced by three
    /// more `SSN = V` lookups: `hospital_rw`'s hot set is then six queries
    /// of one template, equal in reply size and cost.
    pub fn read_write_queries(&self) -> Vec<String> {
        let mut queries = self.point_queries();
        let mut rng = self.rng(0, 4);
        for i in 0..3 {
            let lookup = loop {
                let ssn = &self.ssns[rng.gen_range(0..self.ssns.len())];
                let q = format!("//patient[SSN = '{ssn}']/pname");
                if !queries.contains(&q) {
                    break q;
                }
            };
            queries[i * 8 + 1] = lookup;
        }
        queries
    }

    /// `rw_read_counts` reads of `read_write_queries` in `RW_RANK` order,
    /// shuffled once per seed so that every pass reads in the same order
    /// and hits and misses at the same positions; then `RW_BURST` inserts of
    /// fresh patients, `RW_BURST` deletes by their unique SSNs, which leaves
    /// the database the size it was, and one `tend`.
    fn read_write_pass(&self, pass: u64) -> Vec<Op> {
        let mut order = self.rng(0, 2);
        let mut ops: Vec<Op> = rw_read_counts()
            .iter()
            .zip(RW_RANK)
            .flat_map(|(&reads, q)| std::iter::repeat_n(Op::Query(self.queries[q].clone()), reads))
            .collect();
        for i in (1..ops.len()).rev() {
            ops.swap(i, order.gen_range(0..=i));
        }
        let mut rng = self.rng(pass, 5);
        let ssn = |i: usize| 9_000_000 + pass as usize * RW_BURST + i;
        for i in 0..RW_BURST {
            let record = format!(
                "<patient><pname>{}</pname><SSN>{}</SSN><age>{}</age>\
                 <treat><disease>{}</disease><doctor>{}</doctor></treat>\
                 <insurance><policy coverage=\"{}\">{:05}</policy></insurance></patient>",
                FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())],
                ssn(i),
                rng.gen_range(20..80),
                DISEASES[rng.gen_range(0..DISEASES.len())],
                DOCTORS[rng.gen_range(0..DOCTORS.len())],
                1000 * rng.gen_range(1..1000),
                rng.gen_range(10000..99999),
            );
            ops.push(Op::Insert {
                record,
                seed: rng.gen_range(0..u64::MAX),
            });
        }
        ops.extend((0..RW_BURST).map(|i| Op::Delete {
            query: format!("//patient[SSN = '{}']", ssn(i)),
        }));
        ops.push(Op::Tend);
        ops
    }
}

/// Every class of the paper's protocol taken whole, so that the same
/// queries run under every seed. The paper draws ten random queries per
/// class; here a draw would decide the numbers, because eight of the
/// eighteen distinct Qs and Qm queries are whole-`people` regions at 100 ms
/// and the rest cost 4 to 19 ms. Qs has six queries and Qm twelve, so asking
/// `generate_queries` for thirty takes them all. Ql has hundreds, which
/// differ in their axes more than in their cost, so it is the child-axis
/// path to each kind of leaf element once: sixteen queries from 4 ms
/// (`quantity`) to 36 ms (`name`).
fn scan_queries(doc: &Document, seed: u64) -> Vec<String> {
    let mut out = generate_queries(doc, QueryClass::Qs, 30, seed);
    out.extend(generate_queries(doc, QueryClass::Qm, 30, seed));
    let leaf_paths: BTreeSet<String> = doc
        .iter()
        .filter(|&n| {
            let node = doc.node(n);
            node.is_element() && node.children().iter().all(|&c| !doc.node(c).is_element())
        })
        .map(|n| {
            let mut path = String::new();
            let steps = doc.ancestors(n).into_iter().rev().chain([n]);
            for tag in steps.filter_map(|step| doc.element_name(step)) {
                path.push('/');
                path.push_str(tag);
            }
            path
        })
        .collect();
    out.extend(leaf_paths);
    out
}

/// Queries whose answers are whole encrypted regions: each ships several
/// hundred to 1200 sealed blocks, so on a paged tenant the reply is read
/// through the buffer pool block by block. Value-range queries are left to
/// `hospital_point`: their time is the server's value resolve, which paging
/// does not touch.
fn block_fetch_queries() -> Vec<String> {
    let mut out: Vec<String> = [
        "//patient/pname",
        "//insurance/policy",
        "//patient/insurance",
        "//treat/disease",
        "//patient/age",
        "//patient/treat",
        "//hospital/patient/pname",
    ]
    .iter()
    .map(|q| q.to_string())
    .collect();
    out.extend(
        DISEASES
            .iter()
            .map(|d| format!("//patient[.//disease = '{d}']/pname")),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        for name in NAMES {
            let spec = spec(name, true).unwrap();
            let build = |seed| {
                let doc = Arc::new(spec.generate(seed));
                let s = Schedule::new(spec, Arc::clone(&doc), seed);
                (doc.to_xml(), s.pass(0), s.pass(1), s.pass(7))
            };
            assert_eq!(build(11), build(11), "{name} differs under one seed");
            assert_ne!(build(11).0, build(12).0, "{name} ignores the seed");
            let (_, first, second, _) = build(11);
            assert!(!first.is_empty());
            // Only the records the read-write schedule inserts change.
            assert_eq!(first == second, spec.shape != Shape::ReadWrite, "{name}");
        }
        assert!(spec("nope", false).is_none());
    }

    #[test]
    fn point_constants_cover_each_third_of_the_domain() {
        let spec = spec("hospital_point", true).unwrap();
        let s = Schedule::new(spec, Arc::new(spec.generate(3)), 3);
        let q = s.point_queries();
        assert_eq!(q.len(), 24);
        for (i, age) in [30, 50, 70].iter().enumerate() {
            assert_eq!(q[i * 8], format!("//patient[age > {age}]/pname"));
        }
        assert_eq!(q[5], "//policy[@coverage > 167000]");
        assert_eq!(s.pass(0), s.pass(5));
    }

    #[test]
    fn read_write_pass_keeps_the_database_level() {
        let spec = spec("hospital_rw", true).unwrap();
        let s = Schedule::new(spec, Arc::new(spec.generate(5)), 5);
        let mut sorted = RW_RANK;
        sorted.sort_unstable();
        assert!(
            sorted.iter().copied().eq(0..24),
            "RW_RANK is not a permutation"
        );
        let queries = s.read_write_queries();
        let mut distinct = queries.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 24);
        assert_eq!(queries[RW_RANK[0]], "//patient[age > 50]/pname");
        // The queries whose hits cost less than the top query's.
        let cheaper = |q: &str| {
            [
                "SSN = ",
                "pname = ",
                "disease = ",
                "age > 70",
                "> 833000",
                "< 167000",
            ]
            .iter()
            .any(|part| q.contains(part))
        };
        // Zipf(1): the top rank is read about twice as often as the second
        // and every query at least once, in every interval.
        let counts = rw_read_counts();
        assert_eq!(counts[..4], [40, 20, 13, 10]);
        assert_eq!(counts[23], 2);
        let reads: usize = counts.iter().sum();
        assert!(reads.abs_diff(RW_READS_PER_BURST) <= 3, "{reads} reads");
        // In ascending order: the cheaper hits, the top query's hits, the
        // dearer hits, then one miss per query. The median read is a hit on
        // the top query with ten reads to spare either side.
        let below: usize = (1..24)
            .filter(|&rank| cheaper(&queries[RW_RANK[rank]]))
            .map(|rank| counts[rank] - 1)
            .sum();
        let median = reads.div_ceil(2);
        assert!(below + 10 < median && median + 10 < below + counts[0]);
        for pass in 0..4 {
            let ops = s.pass(pass);
            let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, Op::Query(_))), reads);
            let top = Op::Query(queries[RW_RANK[0]].clone());
            assert_eq!(ops.iter().filter(|o| **o == top).count(), counts[0]);
            assert_eq!(count(|o| matches!(o, Op::Insert { .. })), RW_BURST);
            assert_eq!(count(|o| matches!(o, Op::Delete { .. })), RW_BURST);
            assert_eq!(ops.last(), Some(&Op::Tend));
            // Every pass reads in the same order; only the records differ.
            assert_eq!(ops[..reads], s.pass(0)[..reads]);
        }
        assert_ne!(s.pass(0), s.pass(1));
    }
}
