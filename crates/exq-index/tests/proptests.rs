//! Property tests for the index substrate.

use exq_index::dsi::{DsiLabeling, Interval};
use exq_index::sjoin::{
    join_anc_desc, join_order, least_child, least_desc, semijoin_anc, semijoin_child,
    semijoin_desc, semijoin_parent, sort_intervals, IntervalUniverse, NONE,
};
use exq_index::{DsiIndexTable, ValueIndex};
use exq_xml::{Document, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The value index behaves like a sorted multiset reference model,
    /// however its entries arrive: a bulk load, then merges of any size.
    #[test]
    fn value_index_matches_model(
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u32>()), 0..60),
            0..6,
        ),
        (qlo, qhi) in (any::<u8>(), any::<u8>()),
    ) {
        let mut model: Vec<(u128, u32)> = Vec::new();
        let mut index = ValueIndex::default();
        for batch in batches {
            let batch: Vec<(u128, u32)> = batch.iter().map(|&(k, v)| (k.into(), v)).collect();
            index.merge(batch.iter().copied());
            model.extend(batch);
        }
        // A stable sort: equal keys in the order they were merged.
        model.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(index.len(), model.len());
        prop_assert_eq!(index.iter().collect::<Vec<_>>(), model.clone());
        let (lo, hi) = (u128::from(qlo), u128::from(qhi));
        let want: Vec<u32> = model
            .iter()
            .filter(|&&(k, _)| lo <= k && k <= hi)
            .map(|&(_, v)| v)
            .collect();
        prop_assert_eq!(index.range(lo, hi), want.as_slice());
        prop_assert_eq!(index.range(0, u128::MAX).len(), model.len());
    }

    /// An index bulk-loaded from sorted entries is the one merging them one
    /// at a time builds: same entries in the same order (equal keys in the
    /// order given), same ranges; and merging later entries into both, as
    /// one batch and one by one, keeps the two equal. Keys of a few bits
    /// repeat many times.
    #[test]
    fn from_sorted_equals_inserts(
        entries in prop_oneof![
            proptest::collection::vec((0u64..8, any::<u32>()), 0..80),
            proptest::collection::vec((0u64..300, any::<u32>()), 0..3000),
            proptest::collection::vec((any::<u64>(), any::<u32>()), 1000..1200),
        ],
        later in proptest::collection::vec((0u64..400, any::<u32>()), 0..300),
        bounds in proptest::collection::vec((0u64..420, 0u64..420), 1..8),
    ) {
        let wide = |v: &[(u64, u32)]| -> Vec<(u128, u32)> {
            v.iter().map(|&(k, x)| (k.into(), x)).collect()
        };
        let (mut entries, later) = (wide(&entries), wide(&later));
        let bounds: Vec<(u128, u128)> = bounds.iter().map(|&(a, b)| (a.into(), b.into())).collect();
        entries.sort_by_key(|&(k, _)| k);
        let mut bulk = ValueIndex::from_sorted(entries.iter().copied()).expect("sorted");
        let mut inserted = ValueIndex::default();
        for &e in &entries {
            inserted.merge([e]);
        }
        for phase in 0..2 {
            prop_assert_eq!(&bulk, &inserted, "phase {}", phase);
            for &(a, b) in &bounds {
                prop_assert_eq!(bulk.range(a, b), inserted.range(a, b), "phase {}", phase);
            }
            if phase == 1 {
                break;
            }
            bulk.merge(later.iter().copied());
            for &e in &later {
                inserted.merge([e]);
            }
        }
        // One key out of order anywhere, and there is no index.
        if let Some(at) = (1..entries.len()).find(|&i| entries[i - 1].0 < entries[i].0) {
            entries.swap(at - 1, at);
            prop_assert!(ValueIndex::from_sorted(entries).is_none());
        }
    }
}

/// The universe of every node's interval in `d`.
fn universe(d: &Document, l: &DsiLabeling) -> IntervalUniverse {
    let intervals = d.iter().map(|n| l.interval(n).unwrap());
    let table = DsiIndexTable::from_entries([("", intervals)]).unwrap();
    table.universe().clone()
}

/// Table entries for every node of `d` labelled by `l`: the tag `pick`
/// draws for it and, where `pick` says so too, a second tag `s` or the same
/// entry again.
fn tagged(d: &Document, l: &DsiLabeling, mut pick: impl FnMut() -> u8) -> Vec<(String, Interval)> {
    let mut out = Vec::new();
    for n in d.iter() {
        let iv = l.interval(n).unwrap();
        let draw = pick();
        out.push((format!("t{}", draw % 4), iv));
        match draw / 4 % 4 {
            0 => out.push(("s".to_owned(), iv)),
            1 => out.push((format!("t{}", draw % 4), iv)),
            _ => {}
        }
    }
    out
}

/// The table of `entries`, each given alone.
fn table_of(entries: &[(String, Interval)]) -> DsiIndexTable {
    let lists = entries.iter().map(|(tag, iv)| (tag.as_str(), [*iv]));
    DsiIndexTable::from_entries(lists).expect("the entries nest")
}

/// The table `entries` should make, restated as lists: per tag, its
/// intervals sorted into join order and deduplicated.
fn lists_of(entries: &[(String, Interval)]) -> std::collections::BTreeMap<String, Vec<Interval>> {
    let mut lists = std::collections::BTreeMap::<String, Vec<Interval>>::new();
    for (tag, iv) in entries {
        lists.entry(tag.clone()).or_default().push(*iv);
    }
    for list in lists.values_mut() {
        sort_intervals(list);
        list.dedup();
    }
    lists
}

/// The position of `iv`, a member of `u`: members are in join order.
fn position(u: &IntervalUniverse, iv: Interval) -> u32 {
    let at = u
        .members()
        .binary_search_by(|m| m.lo.cmp(&iv.lo).then(iv.hi.cmp(&m.hi)))
        .expect("a member");
    at as u32
}

/// Random small documents via nested XML strings.
fn doc_strategy() -> impl Strategy<Value = Document> {
    proptest::collection::vec(0u8..5, 1..40).prop_map(|shape| {
        let mut d = Document::new();
        let root = d.add_element(None, "r");
        let mut stack = vec![root];
        for s in shape {
            let top = *stack.last().unwrap();
            match s {
                0 | 1 => {
                    let el = d.add_element(Some(top), if s == 0 { "x" } else { "y" });
                    stack.push(el);
                }
                2 => {
                    d.add_text(top, "t");
                }
                3 => {
                    d.add_attr(top, "k", "v");
                }
                _ => {
                    if stack.len() > 1 {
                        stack.pop();
                    }
                }
            }
        }
        d
    })
}

proptest! {
    /// DSI labeling always satisfies the gap/nesting invariants, and the
    /// interval order mirrors the tree's ancestor relation exactly.
    #[test]
    fn dsi_invariants(d in doc_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = DsiLabeling::assign(&d, &mut rng);
        l.validate(&d).unwrap();
        let nodes: Vec<_> = d.iter().collect();
        for &x in &nodes {
            for &y in &nodes {
                let ix = l.interval(x).unwrap();
                let iy = l.interval(y).unwrap();
                let is_anc = d.ancestors(y).contains(&x);
                prop_assert_eq!(ix.contains(&iy), is_anc);
            }
        }
    }

    /// The structural join over DSI intervals equals the tree-walk truth.
    #[test]
    fn sjoin_matches_tree(d in doc_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = DsiLabeling::assign(&d, &mut rng);
        let xs = d.elements_by_tag("x");
        let ys = d.elements_by_tag("y");
        let mut anc: Vec<Interval> = xs.iter().map(|&n| l.interval(n).unwrap()).collect();
        let mut desc: Vec<Interval> = ys.iter().map(|&n| l.interval(n).unwrap()).collect();
        sort_intervals(&mut anc);
        sort_intervals(&mut desc);
        let pairs = join_anc_desc(&anc, &desc).len();
        let truth = xs
            .iter()
            .map(|&x| {
                ys.iter()
                    .filter(|&&y| d.ancestors(y).contains(&x))
                    .count()
            })
            .sum::<usize>();
        prop_assert_eq!(pairs, truth);
        // Semijoins over universe positions agree with the pair join.
        let u = universe(&d, &l);
        let positions =
            |list: &[Interval]| -> Vec<u32> { list.iter().map(|&iv| position(&u, iv)).collect() };
        let (anc, desc) = (positions(&anc), positions(&desc));
        let da = semijoin_desc(&u, &anc, &desc, false).len();
        let truth_d = ys
            .iter()
            .filter(|&&y| d.ancestors(y).iter().any(|a| xs.contains(a)))
            .count();
        prop_assert_eq!(da, truth_d);
        let aa = semijoin_anc(&u, &anc, &desc, false).len();
        let truth_a = xs
            .iter()
            .filter(|&&x| ys.iter().any(|&y| d.ancestors(y).contains(&x)))
            .count();
        prop_assert_eq!(aa, truth_a);
    }

    /// The interval universe's parent pointers equal the tree's parents.
    #[test]
    fn universe_parents_match_tree(d in doc_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = DsiLabeling::assign(&d, &mut rng);
        let u = universe(&d, &l);
        for n in d.iter() {
            let p = position(&u, l.interval(n).unwrap());
            let expected = d.node(n).parent().map(|p| l.interval(p).unwrap());
            prop_assert_eq!(u.parent(p).map(|q| u.interval(q)), expected);
        }
    }

    /// The child-axis merges, forward and backward, the descendant ones with
    /// and without self, and the least-value merges equal the tree on random
    /// context and candidate subsets. Tags recurse (`x` inside `x`), so
    /// contexts nest.
    #[test]
    fn child_merges_match_tree(
        d in doc_strategy(),
        seed in any::<u64>(),
        in_ctx in proptest::collection::vec(any::<bool>(), 64),
        in_cands in proptest::collection::vec(any::<bool>(), 64),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = DsiLabeling::assign(&d, &mut rng);
        let u = universe(&d, &l);
        let node_at: Vec<NodeId> = {
            let mut by_pos: Vec<(u32, NodeId)> =
                d.iter().map(|n| (position(&u, l.interval(n).unwrap()), n)).collect();
            by_pos.sort_unstable();
            by_pos.into_iter().map(|(_, n)| n).collect()
        };
        let pick = |mask: &[bool]| -> Vec<u32> {
            (0..u.len() as u32).filter(|&p| mask[p as usize % mask.len()]).collect()
        };
        let (ctx, cands) = (pick(&in_ctx), pick(&in_cands));
        let is_parent = |t: u32, c: u32| d.node(node_at[c as usize]).parent() == Some(node_at[t as usize]);
        let want: Vec<u32> = cands
            .iter()
            .copied()
            .filter(|&c| ctx.iter().any(|&t| is_parent(t, c)))
            .collect();
        prop_assert_eq!(semijoin_child(&u, &ctx, &cands), want);
        let want: Vec<u32> = ctx
            .iter()
            .copied()
            .filter(|&t| cands.iter().any(|&c| is_parent(t, c)))
            .collect();
        prop_assert_eq!(semijoin_parent(&u, &ctx, &cands), want);
        let under = |t: u32, c: u32, or_self: bool| {
            (or_self && t == c) || d.ancestors(node_at[c as usize]).contains(&node_at[t as usize])
        };
        for or_self in [false, true] {
            let want: Vec<u32> = cands
                .iter()
                .copied()
                .filter(|&c| ctx.iter().any(|&t| under(t, c, or_self)))
                .collect();
            prop_assert_eq!(semijoin_desc(&u, &ctx, &cands, or_self), want);
            let want: Vec<u32> = ctx
                .iter()
                .copied()
                .filter(|&t| cands.iter().any(|&c| under(t, c, or_self)))
                .collect();
            prop_assert_eq!(semijoin_anc(&u, &ctx, &cands, or_self), want);
        }
        // The least-value merges that pick witnesses: per context member,
        // the least value over the candidates it reaches, on the same
        // nested contexts.
        let vals: Vec<u32> = (0..cands.len() as u32).map(|k| k.wrapping_mul(0x9e37_79b9) >> 8).collect();
        let least = |reaches: &dyn Fn(u32, u32) -> bool| -> Vec<u32> {
            ctx.iter()
                .map(|&t| {
                    let reached = cands.iter().zip(&vals).filter(|&(&c, _)| reaches(t, c));
                    reached.map(|(_, &v)| v).min().unwrap_or(NONE)
                })
                .collect()
        };
        prop_assert_eq!(least_child(&u, &ctx, &cands, &vals), least(&is_parent));
        for or_self in [false, true] {
            prop_assert_eq!(
                least_desc(&u, &ctx, &cands, &vals, or_self),
                least(&|t, c| under(t, c, or_self))
            );
        }
    }
}

/// One update of a [`DsiIndexTable`]: a fragment labelled into the gap
/// after the last child of a member and spliced in, or a member's subtree
/// cut out.
#[derive(Debug, Clone)]
enum TableOp {
    Splice(usize, Box<Document>, u64),
    Cut(usize),
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (any::<usize>(), doc_strategy(), any::<u64>())
            .prop_map(|(at, frag, seed)| TableOp::Splice(at, Box::new(frag), seed)),
        any::<usize>().prop_map(TableOp::Cut),
    ]
}

proptest! {
    /// The DSI table of random labelled documents under random tags, some
    /// intervals listed under two tags or twice under one: each lookup is
    /// that tag's entries in join order, deduplicated, and the counts are
    /// those lists'. After random splices and cuts the table equals a
    /// build from the entries left.
    #[test]
    fn dsi_table_equals_its_entries(
        d in doc_strategy(),
        seed in any::<u64>(),
        ops in proptest::collection::vec(table_op(), 0..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = DsiLabeling::assign(&d, &mut rng);
        let mut draws = (0..).map(|i: u64| (seed.rotate_left(i as u32 * 7) ^ i) as u8);
        let mut entries = tagged(&d, &l, || draws.next().unwrap());
        let mut table = table_of(&entries);
        let lists = lists_of(&entries);
        for (tag, list) in &lists {
            let got: Vec<Interval> = table.lookup(tag).iter().copied().collect();
            prop_assert_eq!(&got, list, "tag {}", tag);
        }
        prop_assert!(table.lookup("ghost").is_empty());
        prop_assert_eq!(table.tag_count(), lists.len());
        prop_assert_eq!(table.entry_count(), lists.values().map(Vec::len).sum::<usize>());

        for op in ops {
            let u = table.universe();
            if u.is_empty() {
                break;
            }
            match op {
                TableOp::Splice(at, frag, frag_seed) => {
                    let under = (at % u.len()) as u32;
                    let parent = u.interval(under);
                    let lo = u.last_child(under).map_or(parent.lo, |q| u.interval(q).hi);
                    let mut frag_rng = StdRng::seed_from_u64(frag_seed);
                    let Some(fl) = DsiLabeling::assign_in_slot(&*frag, &mut frag_rng, lo, parent.hi)
                    else {
                        continue;
                    };
                    let mut draws = (0..).map(|i: u64| (frag_seed >> (i % 56)) as u8 ^ i as u8);
                    let new = tagged(&frag, &fl, || draws.next().unwrap());
                    let mut run: Vec<Interval> = new.iter().map(|&(_, iv)| iv).collect();
                    run.sort_by(join_order);
                    run.dedup();
                    table.splice_in(under, &run, &new);
                    entries.extend(new);
                }
                TableOp::Cut(at) => {
                    let victim = u.interval((at % u.len()) as u32);
                    table.cut((at % u.len()) as u32);
                    entries.retain(|(_, iv)| *iv != victim && !victim.contains(iv));
                }
            }
            prop_assert_eq!(&table, &table_of(&entries));
        }
    }
}
