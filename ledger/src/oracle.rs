//! The plaintext oracle: every answer the secure pipeline returns is
//! compared with `exq_xpath::eval_document` over the plaintext twin of the
//! hosted database, rendered as `tests/end_to_end.rs` renders it.

use crate::Res;
use exq_xml::{Document, NodeKind};
use exq_xpath::{eval_document, Path};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An answer reduced to what equality needs: how many results, and a digest
/// of them in sorted order. Keeping digests instead of strings keeps the
/// oracle's memoised answers out of the workload's peak memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub results: usize,
    hash: u64,
}

pub fn digest(mut results: Vec<String>) -> Digest {
    results.sort_unstable();
    let mut h = DefaultHasher::new();
    for r in &results {
        r.hash(&mut h);
    }
    Digest {
        results: results.len(),
        hash: h.finish(),
    }
}

/// The plaintext twin plus memoised reference answers.
pub struct Oracle {
    /// Shared with the schedule until the first mutation copies it.
    doc: Arc<Document>,
    /// Reference digests by query text; dropped whenever the twin mutates.
    memo: HashMap<String, Digest>,
}

impl Oracle {
    pub fn new(doc: Arc<Document>) -> Oracle {
        Oracle {
            doc,
            memo: HashMap::new(),
        }
    }

    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// `Q(D)` on the plaintext, each node rendered as the client renders it.
    pub fn reference(&self, query: &str) -> Res<Vec<String>> {
        let path = Path::parse(query).map_err(|e| format!("oracle cannot parse {query}: {e}"))?;
        Ok(eval_document(&self.doc, &path)
            .into_iter()
            .map(|n| match self.doc.node(n).kind() {
                NodeKind::Element(_) => self.doc.node_to_xml(n),
                NodeKind::Attribute(_, v) => v.clone(),
                NodeKind::Text(t) => t.clone(),
            })
            .collect())
    }

    /// True when `got` is exactly the reference answer to `query`.
    pub fn check(&mut self, query: &str, got: Vec<String>) -> Res<bool> {
        let expected = match self.memo.get(query) {
            Some(d) => *d,
            None => {
                let d = digest(self.reference(query)?);
                self.memo.insert(query.to_owned(), d);
                d
            }
        };
        Ok(digest(got) == expected)
    }

    /// Mirrors `Client::insert_via(.., "/hospital", record, ..)`: the record
    /// becomes the last child of the document root.
    pub fn insert_under_root(&mut self, record: &str) -> Res<()> {
        let rec = Document::parse(record).map_err(|e| format!("bad record: {e}"))?;
        let (rec_root, root) = match (rec.root(), self.doc.root()) {
            (Some(r), Some(d)) => (r, d),
            _ => return Err("empty record or document".into()),
        };
        rec.clone_subtree_into(rec_root, Arc::make_mut(&mut self.doc), Some(root));
        self.memo.clear();
        Ok(())
    }

    /// Mirrors `Client::delete_via`: detaches every node `query` selects and
    /// returns how many there were.
    pub fn delete(&mut self, query: &str) -> Res<usize> {
        let path = Path::parse(query).map_err(|e| format!("oracle cannot parse {query}: {e}"))?;
        let victims = eval_document(&self.doc, &path);
        let doc = Arc::make_mut(&mut self.doc);
        for &v in &victims {
            doc.detach(v);
        }
        self.memo.clear();
        Ok(victims.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_inserts_and_deletes() {
        let doc = Document::parse("<hospital><patient><SSN>1</SSN></patient></hospital>").unwrap();
        let mut o = Oracle::new(Arc::new(doc));
        assert!(o.check("//SSN", vec!["<SSN>1</SSN>".into()]).unwrap());
        o.insert_under_root("<patient><SSN>2</SSN></patient>")
            .unwrap();
        assert!(!o.check("//SSN", vec!["<SSN>1</SSN>".into()]).unwrap());
        // Order does not matter; multiplicity does.
        let both = vec!["<SSN>2</SSN>".to_owned(), "<SSN>1</SSN>".to_owned()];
        assert!(o.check("//SSN", both).unwrap());
        assert_eq!(o.delete("//patient[SSN = '1']").unwrap(), 1);
        assert!(o.check("//SSN", vec!["<SSN>2</SSN>".into()]).unwrap());
        assert!(!o
            .check("//SSN", vec!["<SSN>2</SSN>".into(), "<SSN>2</SSN>".into()])
            .unwrap());
    }
}
