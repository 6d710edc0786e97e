//! `outer_join` against a model: the union of two `BTreeMap`s from
//! `(key, occurrence)` to a row. The occurrence index is the join's
//! duplicate-key rule spelled out — the k-th row with a key on one side
//! pairs with the k-th on the other — so the model needs no special case
//! for it. Checked: the rows as a multiset, and the stated order.

use std::collections::{BTreeMap, BTreeSet};

use ncd_core::outer_join;
use proptest::prelude::*;

/// A row is `(key, payload)`; few keys, so duplicates are the norm.
type Row = (u8, u32);

/// Each key with its occurrence index among `keys` so far, in order.
fn occurrences(keys: impl Iterator<Item = u8>) -> Vec<(u8, usize)> {
    let mut seen: BTreeMap<u8, usize> = BTreeMap::new();
    keys.map(|key| {
        let next = seen.entry(key).or_insert(0);
        *next += 1;
        (key, *next - 1)
    })
    .collect()
}

/// `(key, occurrence) -> row` for one side.
fn model(rows: &[Row]) -> BTreeMap<(u8, usize), Row> {
    let at = occurrences(rows.iter().map(|row| row.0));
    at.into_iter().zip(rows.iter().copied()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn outer_join_is_the_occurrence_keyed_union(
        base in proptest::collection::vec((0u8..5, 0u32..1000), 0..24),
        cur in proptest::collection::vec((0u8..5, 0u32..1000), 0..24),
    ) {
        let rows = outer_join(&base, &cur, |row| row.0);
        let (model_base, model_cur) = (model(&base), model(&cur));

        // Multiset: the union of the two models, each entry once. (A
        // row's occurrence in the output is its occurrence in the model:
        // base rows come in base order, the surplus after them.)
        let at = occurrences(rows.iter().map(|row| row.0));
        let joined: BTreeMap<_, _> = at
            .into_iter()
            .zip(rows.iter().map(|&(_, b, c)| (b.copied(), c.copied())))
            .collect();
        let union: BTreeSet<_> = model_base.keys().chain(model_cur.keys()).collect();
        let expected: BTreeMap<_, _> = union
            .into_iter()
            .map(|at| (*at, (model_base.get(at).copied(), model_cur.get(at).copied())))
            .collect();
        prop_assert_eq!(rows.len(), expected.len());
        prop_assert_eq!(joined, expected);

        // Order: every base row first, in base order; then the rows only
        // the current side has, in current order.
        let (head, tail) = rows.split_at(base.len());
        let head: Vec<Option<Row>> = head.iter().map(|&(_, b, _)| b.copied()).collect();
        prop_assert_eq!(head, base.iter().copied().map(Some).collect::<Vec<_>>());
        let tail: Vec<(Option<Row>, Option<Row>)> =
            tail.iter().map(|&(_, b, c)| (b.copied(), c.copied())).collect();
        let surplus: Vec<(Option<Row>, Option<Row>)> = occurrences(cur.iter().map(|row| row.0))
            .iter()
            .zip(&cur)
            .filter(|(at, _)| !model_base.contains_key(at))
            .map(|(_, row)| (None, Some(*row)))
            .collect();
        prop_assert_eq!(tail, surplus);
    }
}
