//! Variable-length rows packed into one buffer.
//!
//! Per-entity lists (a KB's adjacency, an alignment's candidate rows) are
//! short and numerous. One `Vec` per row costs an allocation to build,
//! one to copy and one to free, for every row. [`Rows`] keeps all rows in
//! a single buffer instead, so building, cloning and dropping a table of
//! rows is a handful of allocations however many rows it has.

/// Rows of `T` in one buffer: row `i` is the `len` items at `start`,
/// where `spans[i] = (start, len)`.
///
/// A row edited in place keeps its slot while it does not grow. A row
/// that outgrows its slot moves to the end of the buffer and abandons the
/// old slot; [`compact_if_sparse`](Self::compact_if_sparse) reclaims the
/// abandoned slots once they outweigh the live items.
#[derive(Clone, Debug)]
pub struct Rows<T> {
    spans: Vec<(usize, usize)>,
    items: Vec<T>,
    /// Items in live rows: `items.len()` minus the abandoned slots.
    live: usize,
}

impl<T: Copy> Rows<T> {
    /// `n` empty rows.
    pub fn empty(n: usize) -> Self {
        Rows {
            spans: vec![(0, 0); n],
            items: Vec::new(),
            live: 0,
        }
    }

    /// Rows with the given lengths, every item set to `fill`. Callers fill
    /// the rows through [`row_mut`](Self::row_mut).
    pub fn with_lengths(lengths: impl IntoIterator<Item = usize>, fill: T) -> Self {
        let mut spans = Vec::new();
        let mut start = 0;
        for len in lengths {
            spans.push((start, len));
            start += len;
        }
        Rows {
            spans,
            items: vec![fill; start],
            live: start,
        }
    }

    /// Appends a row after the last one.
    pub fn push_row(&mut self, row: &[T]) {
        self.spans.push((self.items.len(), row.len()));
        self.items.extend_from_slice(row);
        self.live += row.len();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total items over all rows.
    pub fn num_items(&self) -> usize {
        self.live
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let (start, len) = self.spans[i];
        &self.items[start..start + len]
    }

    /// Row `i`, mutable in place (its length is fixed).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        let (start, len) = self.spans[i];
        &mut self.items[start..start + len]
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        (0..self.spans.len()).map(|i| self.row(i))
    }

    /// Adds empty rows until there are `n`; never removes rows.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.spans.len() {
            self.spans.resize(n, (0, 0));
        }
    }

    /// Overwrites row `i`, in place when the new row fits its slot.
    pub fn set(&mut self, i: usize, row: &[T]) {
        let (start, len) = self.spans[i];
        self.live = self.live - len + row.len();
        if row.len() <= len {
            self.items[start..start + row.len()].copy_from_slice(row);
            self.spans[i].1 = row.len();
        } else {
            self.spans[i] = (self.items.len(), row.len());
            self.items.extend_from_slice(row);
        }
    }

    /// Removes the item at `pos` of row `i`, keeping the others in order.
    pub fn remove(&mut self, i: usize, pos: usize) {
        self.row_mut(i)[pos..].rotate_left(1);
        self.spans[i].1 -= 1;
        self.live -= 1;
    }

    /// Re-packs the buffer once abandoned slots outweigh the live items.
    pub fn compact_if_sparse(&mut self) {
        if self.items.len() <= 2 * self.live + 1024 {
            return;
        }
        let mut items = Vec::with_capacity(self.live);
        for span in &mut self.spans {
            let (start, len) = *span;
            *span = (items.len(), len);
            items.extend_from_slice(&self.items[start..start + len]);
        }
        self.items = items;
    }
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Rows {
            spans: Vec::new(),
            items: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Copy> FromIterator<Vec<T>> for Rows<T> {
    fn from_iter<I: IntoIterator<Item = Vec<T>>>(rows: I) -> Self {
        let mut out = Rows::empty(0);
        for row in rows {
            out.push_row(&row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vecs(rows: &Rows<u32>) -> Vec<Vec<u32>> {
        rows.iter().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn edits_match_a_vec_of_vecs() {
        let mut rows = Rows::empty(6);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); 6];
        let mut state = 3u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % m
        };
        for step in 0..5000u32 {
            let i = next(6) as usize;
            match next(3) {
                0 => {
                    let row: Vec<u32> = (0..next(5) as u32).map(|k| step + k).collect();
                    rows.set(i, &row);
                    model[i] = row;
                }
                1 if !model[i].is_empty() => {
                    let pos = next(model[i].len() as u64) as usize;
                    rows.remove(i, pos);
                    model[i].remove(pos);
                }
                _ => rows.compact_if_sparse(),
            }
            assert_eq!(rows.num_items(), model.iter().map(Vec::len).sum::<usize>());
        }
        assert_eq!(to_vecs(&rows), model);
        rows.compact_if_sparse();
        assert!(rows.items.len() <= 2 * rows.live + 1024);
        assert_eq!(to_vecs(&rows), model);
    }

    #[test]
    fn builders_and_growth() {
        let rows: Rows<u32> = vec![vec![1, 2], vec![], vec![3]].into_iter().collect();
        assert_eq!(to_vecs(&rows), vec![vec![1, 2], vec![], vec![3]]);
        let mut filled = Rows::with_lengths([2, 0, 1], 0u32);
        filled.row_mut(0).copy_from_slice(&[1, 2]);
        filled.row_mut(2)[0] = 3;
        assert_eq!(to_vecs(&filled), to_vecs(&rows));
        filled.grow_to(4);
        assert_eq!(to_vecs(&filled), vec![vec![1, 2], vec![], vec![3], vec![]]);
    }
}
