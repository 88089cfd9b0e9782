//! The leaf-value histogram used by the attack model and the experiments.

use crate::tree::{Document, NodeKind};
use std::collections::HashMap;

impl Document {
    /// The occurrence-frequency histogram of leaf values grouped by the
    /// "attribute" they belong to (parent element tag for text leaves,
    /// attribute name for attribute nodes).
    ///
    /// This is exactly the attacker's background knowledge in the paper's
    /// frequency-based attack model (§3.3): for each attribute, the domain
    /// values and their exact occurrence frequencies.
    pub fn value_histogram(&self) -> HashMap<String, HashMap<String, usize>> {
        let mut out: HashMap<String, HashMap<String, usize>> = HashMap::new();
        for id in self.iter() {
            match self.node(id).kind() {
                NodeKind::Attribute(name, v) => {
                    let key = format!("@{}", self.tag_name(*name));
                    *out.entry(key).or_default().entry(v.clone()).or_default() += 1;
                }
                NodeKind::Text(t) => {
                    let parent = self.node(id).parent().expect("text has a parent");
                    let key = self.element_name(parent).unwrap_or("#unknown").to_owned();
                    *out.entry(key).or_default().entry(t.clone()).or_default() += 1;
                }
                NodeKind::Element(_) => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_histogram_groups_by_attribute() {
        let d = Document::parse(
            r#"<r><p><d>flu</d><d>flu</d><d>cold</d></p><q age="40"/><q age="40"/></r>"#,
        )
        .unwrap();
        let h = d.value_histogram();
        assert_eq!(h["d"]["flu"], 2);
        assert_eq!(h["d"]["cold"], 1);
        assert_eq!(h["@age"]["40"], 2);
    }
}
