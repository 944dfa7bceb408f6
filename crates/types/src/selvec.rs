//! Selection vectors for columnar batch execution.
//!
//! A [`SelVec`] names the rows of a micro-partition batch that survived
//! predicate evaluation, in ascending row order. The common no-nulls,
//! nothing-filtered case is represented as a contiguous [`SelVec::All`]
//! range so fully-matching batches never allocate an index list; once any
//! row is dropped the selection degrades to an explicit sorted index list.
//!
//! Row indices are **absolute partition row numbers**, not batch-relative
//! offsets, so late materialization (`column.value_at(i)`) and partition
//! provenance work directly off a selection without re-basing.

use std::ops::Range;

/// The rows of one batch that qualify, in ascending partition-row order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SelVec {
    /// Every row in `range` qualifies (contiguous, allocation-free).
    All(Range<usize>),
    /// Exactly these rows qualify (sorted ascending, duplicate-free).
    Rows(Vec<usize>),
}

impl SelVec {
    /// An empty selection.
    pub fn empty() -> SelVec {
        SelVec::Rows(Vec::new())
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        match self {
            SelVec::All(r) => r.len(),
            SelVec::Rows(v) => v.len(),
        }
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the selected row indices in ascending order.
    pub fn iter(&self) -> SelIter<'_> {
        match self {
            SelVec::All(r) => SelIter::All(r.clone()),
            SelVec::Rows(v) => SelIter::Rows(v.iter()),
        }
    }

    /// Materialize the selection as an index list (mainly for tests and
    /// row-fallback consumers).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Retain only the selected rows passing `test`, in place. A
    /// fully-passing [`SelVec::All`] range keeps its allocation-free form;
    /// dropping any row degrades it to an explicit index list. This is the
    /// primitive behind every predicate kernel: monomorphized per call
    /// site so each typed test compiles to a tight loop.
    #[inline]
    pub fn retain(&mut self, mut test: impl FnMut(usize) -> bool) {
        match self {
            SelVec::All(range) => {
                let mut rows = Vec::with_capacity(range.len());
                rows.extend(range.clone().filter(|&i| test(i)));
                if rows.len() != range.len() {
                    *self = SelVec::Rows(rows);
                }
                // else: every row passed — keep the allocation-free form.
            }
            SelVec::Rows(rows) => rows.retain(|&i| test(i)),
        }
    }
}

impl<'a> IntoIterator for &'a SelVec {
    type Item = usize;
    type IntoIter = SelIter<'a>;

    fn into_iter(self) -> SelIter<'a> {
        self.iter()
    }
}

/// Iterator over the row indices of a [`SelVec`].
pub enum SelIter<'a> {
    /// Walking a contiguous [`SelVec::All`] range.
    All(Range<usize>),
    /// Walking an explicit [`SelVec::Rows`] index list.
    Rows(std::slice::Iter<'a, usize>),
}

impl Iterator for SelIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            SelIter::All(r) => r.next(),
            SelIter::Rows(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            SelIter::All(r) => r.size_hint(),
            SelIter::Rows(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for SelIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_range_is_contiguous_and_sized() {
        let s = SelVec::All(3..7);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.to_vec(), vec![3, 4, 5, 6]);
        assert_eq!(s.iter().len(), 4);
    }

    #[test]
    fn rows_list_roundtrips() {
        let s = SelVec::Rows(vec![1, 4, 9]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_vec(), vec![1, 4, 9]);
        let collected: Vec<usize> = (&s).into_iter().collect();
        assert_eq!(collected, vec![1, 4, 9]);
    }

    #[test]
    fn empty_forms() {
        assert!(SelVec::empty().is_empty());
        assert!(SelVec::All(5..5).is_empty());
        assert_eq!(SelVec::All(5..5).to_vec(), Vec::<usize>::new());
    }

    #[test]
    fn retain_keeps_all_form_when_everything_passes() {
        let mut s = SelVec::All(2..6);
        s.retain(|_| true);
        assert_eq!(s, SelVec::All(2..6));
        s.retain(|i| i % 2 == 0);
        assert_eq!(s, SelVec::Rows(vec![2, 4]));
        s.retain(|i| i > 2);
        assert_eq!(s, SelVec::Rows(vec![4]));
    }
}
