//! Security constraints (§3.2).
//!
//! A security constraint (SC) is the data owner's specification of what must
//! be protected from the server:
//!
//! * a **node-type** constraint `p` (e.g. `//insurance`) classifies the whole
//!   subtree (tag, content, structure) of every node `p` binds to;
//! * an **association** constraint `p : (q1, q2)` (e.g.
//!   `//patient:(/pname, /SSN)`) classifies, for every node `x` bound by `p`,
//!   the association between the values that `q1` and `q2` bind to under `x`.
//!
//! Each SC *captures* a set of queries whose (non-)emptiness on the hosted
//! database must be protected; [`SecurityConstraint::captured_association_holds`]
//! implements the
//! `D ⊨ A` check for association queries `p[q1 = v1][q2 = v2]`.

use crate::error::CoreError;
use exq_xml::{NodeId, TreeView};
use exq_xpath::{eval, eval_from, Path};
use std::fmt;
use std::iter;

/// A security constraint.
///
/// ```
/// use exq_core::SecurityConstraint;
/// let node_type = SecurityConstraint::parse("//insurance").unwrap();
/// assert!(!node_type.is_association());
/// let assoc = SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap();
/// let (q1, q2) = assoc.endpoint_paths().unwrap();
/// assert_eq!(q1.to_string(), "//patient/pname");
/// assert_eq!(q2.to_string(), "//patient/SSN");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum SecurityConstraint {
    /// `p` — protect every element subtree bound by `p`.
    NodeType(Path),
    /// `p : (q1, q2)` — protect the association between the values bound by
    /// `q1` and `q2` in the context of each node bound by `p`.
    Association { context: Path, q1: Path, q2: Path },
}

impl SecurityConstraint {
    /// Parses the paper's SC syntax: either an XPath `p`, or
    /// `p:(q1, q2)` with relative paths `q1`, `q2`.
    pub fn parse(input: &str) -> Result<SecurityConstraint, CoreError> {
        let input = input.trim();
        match input.find(":(") {
            None => {
                let p =
                    Path::parse(input).map_err(|e| CoreError::ConstraintSyntax(e.to_string()))?;
                Ok(SecurityConstraint::NodeType(p))
            }
            Some(pos) => {
                let ctx = &input[..pos];
                let rest = input[pos + 2..]
                    .strip_suffix(')')
                    .ok_or_else(|| CoreError::ConstraintSyntax("missing `)`".into()))?;
                let mut parts = rest.splitn(2, ',');
                let q1 = parts
                    .next()
                    .ok_or_else(|| CoreError::ConstraintSyntax("missing q1".into()))?;
                let q2 = parts
                    .next()
                    .ok_or_else(|| CoreError::ConstraintSyntax("missing q2".into()))?;
                let parse = |s: &str| {
                    Path::parse(s.trim()).map_err(|e| CoreError::ConstraintSyntax(e.to_string()))
                };
                Ok(SecurityConstraint::Association {
                    context: parse(ctx)?,
                    q1: parse(q1)?,
                    q2: parse(q2)?,
                })
            }
        }
    }

    /// Is this an association-type constraint?
    pub fn is_association(&self) -> bool {
        matches!(self, SecurityConstraint::Association { .. })
    }

    /// For an association SC: the two *absolute endpoint paths*
    /// `p/q1` and `p/q2` whose bound node sets are the encryption choices.
    pub fn endpoint_paths(&self) -> Option<(Path, Path)> {
        match self {
            SecurityConstraint::NodeType(_) => None,
            SecurityConstraint::Association { context, q1, q2 } => {
                Some((context.join(q1), context.join(q2)))
            }
        }
    }

    /// `D ⊨ p[q1 = v1][q2 = v2]`: does some context node bound by `p` have a
    /// `q1` binding with value `v1` *and* a `q2` binding with value `v2`?
    pub fn captured_association_holds(&self, doc: &impl TreeView, v1: &str, v2: &str) -> bool {
        let SecurityConstraint::Association { context, q1, q2 } = self else {
            return false;
        };
        eval(doc, context).into_iter().any(|x| {
            eval_from(doc, q1, &[x])
                .iter()
                .any(|&n| doc.string_value(n) == v1)
                && eval_from(doc, q2, &[x])
                    .iter()
                    .any(|&n| doc.string_value(n) == v2)
        })
    }

    /// All value pairs `(v1, v2)` for which the captured association query
    /// holds — i.e. everything this SC says must be protected.
    pub fn sensitive_pairs(&self, doc: &impl TreeView) -> Vec<(String, String)> {
        let SecurityConstraint::Association { context, q1, q2 } = self else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for x in eval(doc, context) {
            for &a in &eval_from(doc, q1, &[x]) {
                for &b in &eval_from(doc, q2, &[x]) {
                    let value = |n| doc.string_value(n).into_owned();
                    let pair = (value(a), value(b));
                    if !out.contains(&pair) {
                        out.push(pair);
                    }
                }
            }
        }
        out
    }

    /// Checks that this SC is enforced by the set of encrypted subtree roots
    /// `encrypted_roots`: every classified node must lie inside (or be) an
    /// encrypted subtree; for associations, *for each context binding*, at
    /// least one endpoint's bound nodes must all be encrypted.
    pub fn is_enforced(&self, doc: &impl TreeView, encrypted_roots: &[NodeId]) -> bool {
        let inside = |n: NodeId| {
            encrypted_roots
                .iter()
                .any(|&r| r == n || ancestors(doc, n).any(|a| a == r))
        };
        match self {
            SecurityConstraint::NodeType(p) => eval(doc, p).into_iter().all(inside),
            SecurityConstraint::Association { context, q1, q2 } => {
                eval(doc, context).into_iter().all(|x| {
                    let n1 = eval_from(doc, q1, &[x]);
                    let n2 = eval_from(doc, q2, &[x]);
                    // If either endpoint has no bindings there is no
                    // association to protect in this context.
                    if n1.is_empty() || n2.is_empty() {
                        return true;
                    }
                    n1.iter().all(|&n| inside(n)) || n2.iter().all(|&n| inside(n))
                })
            }
        }
    }
}

/// The ancestors of `n`, nearest first.
pub(crate) fn ancestors(doc: &impl TreeView, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    iter::successors(doc.parent_of(n), |&p| doc.parent_of(p))
}

/// The number of nodes in `n`'s subtree, `n`, attributes and text included.
pub(crate) fn subtree_len(doc: &impl TreeView, n: NodeId) -> usize {
    let mut len = 0;
    doc.for_each_in_subtree(n, |_| len += 1);
    len
}

impl fmt::Display for SecurityConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityConstraint::NodeType(p) => write!(f, "{p}"),
            SecurityConstraint::Association { context, q1, q2 } => {
                write!(f, "{context}:({q1}, {q2})")
            }
        }
    }
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
                  <insurance><policy>34221</policy></insurance></patient>
                <patient><pname>Matt</pname><SSN>276543</SSN>
                  <treat><disease>leukemia</disease><doctor>Brown</doctor></treat></patient>
               </hospital>"#,
        )
        .unwrap()
    }

    #[test]
    fn parse_node_type() {
        let sc = SecurityConstraint::parse("//insurance").unwrap();
        assert!(matches!(sc, SecurityConstraint::NodeType(_)));
        assert_eq!(sc.to_string(), "//insurance");
    }

    #[test]
    fn parse_association() {
        let sc = SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap();
        assert!(sc.is_association());
        let (e1, e2) = sc.endpoint_paths().unwrap();
        assert_eq!(e1.to_string(), "//patient/pname");
        assert_eq!(e2.to_string(), "//patient/SSN");
    }

    #[test]
    fn parse_association_with_descendant_endpoint() {
        let sc = SecurityConstraint::parse("//patient:(/pname, //disease)").unwrap();
        let (_, e2) = sc.endpoint_paths().unwrap();
        assert_eq!(e2.to_string(), "//patient//disease");
    }

    #[test]
    fn parse_errors() {
        assert!(SecurityConstraint::parse("//patient:(/pname").is_err());
        assert!(SecurityConstraint::parse("//patient:(").is_err());
        assert!(SecurityConstraint::parse("//[").is_err());
    }

    #[test]
    fn captured_association() {
        let d = doc();
        let sc = SecurityConstraint::parse("//patient:(/pname, //disease)").unwrap();
        assert!(sc.captured_association_holds(&d, "Betty", "diarrhea"));
        assert!(sc.captured_association_holds(&d, "Matt", "leukemia"));
        assert!(!sc.captured_association_holds(&d, "Betty", "leukemia"));
        assert!(!sc.captured_association_holds(&d, "Zoe", "diarrhea"));
    }

    #[test]
    fn sensitive_pairs() {
        let d = doc();
        let sc = SecurityConstraint::parse("//patient:(/pname, /SSN)").unwrap();
        let pairs = sc.sensitive_pairs(&d);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&("Betty".into(), "763895".into())));
    }

    #[test]
    fn enforcement_node_type() {
        let d = doc();
        let sc = SecurityConstraint::parse("//insurance").unwrap();
        let ins = d.elements_by_tag("insurance");
        assert!(sc.is_enforced(&d, &ins));
        // Encrypting the patient (an ancestor) also enforces it.
        let patients = d.elements_by_tag("patient");
        assert!(sc.is_enforced(&d, &patients));
        assert!(!sc.is_enforced(&d, &[]));
    }

    #[test]
    fn enforcement_association_either_endpoint() {
        let d = doc();
        let sc = SecurityConstraint::parse("//patient:(/pname, //disease)").unwrap();
        let pnames = d.elements_by_tag("pname");
        let diseases = d.elements_by_tag("disease");
        assert!(sc.is_enforced(&d, &pnames));
        assert!(sc.is_enforced(&d, &diseases));
        // Encrypting only one patient's pname is not enough.
        assert!(!sc.is_enforced(&d, &pnames[..1]));
    }

    #[test]
    fn enforcement_vacuous_context() {
        let d = doc();
        let sc = SecurityConstraint::parse("//visit:(/a, /b)").unwrap();
        assert!(sc.is_enforced(&d, &[]));
    }
}
