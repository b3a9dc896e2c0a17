//! Elimination-tree level scheduling for the LDLᵀ factorization.
//!
//! The elimination tree of a symmetric factorization orders every data
//! dependency of the sparse kernels: column `k` of the factor depends only
//! on its *descendants* in the tree (row `k` of `L` is nonzero only at
//! descendant columns), the forward triangular solve propagates values
//! from descendants to ancestors, and the backward solve from ancestors to
//! descendants. Bucketing columns by their **level** — distance from the
//! deepest leaf below them — therefore yields a schedule where every
//! column of one level may run concurrently: all of its dependencies live
//! in strictly lower levels.
//!
//! [`LevelSchedule`] is that bucketing, computed once during symbolic
//! analysis and reused by the numeric factorization (levels in ascending
//! order), the forward sweep (ascending) and the backward sweep
//! (descending). Within a level, columns are stored in ascending index
//! order, so a serial traversal of the schedule is deterministic and the
//! parallel traversal writes each column's outputs exactly once.

/// Columns of a factorization bucketed by elimination-tree level.
///
/// Level `0` holds the etree leaves (columns with no dependencies among
/// themselves), level `ℓ` the columns whose deepest child sits at level
/// `ℓ − 1`. Construct one with [`LevelSchedule::from_parents`].
///
/// # Example
///
/// ```
/// use sass_sparse::etree::LevelSchedule;
///
/// // A path etree 0 → 1 → 2 (each column the parent of the previous one)
/// // has no level parallelism: three levels of width one.
/// let s = LevelSchedule::from_parents(&[1, 2, -1]);
/// assert_eq!(s.level_count(), 3);
/// assert_eq!(s.max_width(), 1);
/// assert_eq!(s.level(0), &[0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSchedule {
    /// Columns ordered by (level, column index ascending).
    cols: Vec<u32>,
    /// `cols[level_ptr[l]..level_ptr[l + 1]]` is level `l`.
    level_ptr: Vec<usize>,
    /// Width of the widest level (0 for an empty schedule).
    max_width: usize,
}

impl LevelSchedule {
    /// Builds the schedule from an elimination-tree parent array
    /// (`parent[k] < 0` marks a root; forests are fine).
    ///
    /// Requires the standard etree property `parent[k] > k` for non-roots,
    /// which every etree produced by symbolic analysis satisfies; levels
    /// are then computable in one ascending pass.
    ///
    /// # Panics
    ///
    /// Panics if a non-root parent is not greater than its child.
    pub fn from_parents(parent: &[i64]) -> Self {
        let n = parent.len();
        let mut level = vec![0usize; n];
        let mut n_levels = 0usize;
        for k in 0..n {
            // All children of k precede it, so level[k] is final here.
            n_levels = n_levels.max(level[k] + 1);
            let p = parent[k];
            if p >= 0 {
                let p = p as usize;
                assert!(p > k, "etree parent {p} not greater than child {k}");
                level[p] = level[p].max(level[k] + 1);
            }
        }
        let mut level_ptr = vec![0usize; n_levels + 1];
        for &l in &level {
            level_ptr[l + 1] += 1;
        }
        for l in 0..n_levels {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut cols = vec![0u32; n];
        let mut next = level_ptr.clone();
        // Ascending k keeps every level's columns in ascending order.
        for (k, &l) in level.iter().enumerate() {
            cols[next[l]] = k as u32;
            next[l] += 1;
        }
        let max_width = (0..n_levels)
            .map(|l| level_ptr[l + 1] - level_ptr[l])
            .max()
            .unwrap_or(0);
        LevelSchedule {
            cols,
            level_ptr,
            max_width,
        }
    }

    /// Number of levels (0 for an empty matrix).
    pub fn level_count(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Width of the widest level — the upper bound on useful parallelism
    /// for any single level.
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Mean columns per level, rounded down — a schedule-wide
    /// parallelism proxy (a path etree has average width 1, a star
    /// all-but-one column in level 0).
    pub fn avg_width(&self) -> usize {
        self.cols.len() / self.level_count().max(1)
    }

    /// The columns of level `l`, in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `l >= level_count()`.
    pub fn level(&self, l: usize) -> &[u32] {
        &self.cols[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// Total number of scheduled columns (the matrix dimension).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the schedule covers no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Heap bytes held by the schedule (columns + level pointers).
    pub fn memory_bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<u32>()
            + self.level_ptr.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_forest_and_singleton() {
        let s = LevelSchedule::from_parents(&[]);
        assert_eq!(s.level_count(), 0);
        assert_eq!(s.max_width(), 0);
        assert!(s.is_empty());

        let s = LevelSchedule::from_parents(&[-1]);
        assert_eq!(s.level_count(), 1);
        assert_eq!(s.level(0), &[0]);
        assert_eq!(s.max_width(), 1);
        assert_eq!(s.avg_width(), 1);
    }

    #[test]
    fn path_has_no_parallelism() {
        // 0 → 1 → 2 → 3: one column per level.
        let s = LevelSchedule::from_parents(&[1, 2, 3, -1]);
        assert_eq!(s.level_count(), 4);
        assert_eq!(s.max_width(), 1);
        assert_eq!(s.avg_width(), 1);
        for l in 0..4 {
            assert_eq!(s.level(l), &[l as u32]);
        }
    }

    #[test]
    fn star_is_one_wide_level_plus_root() {
        // Columns 0..4 all children of 5.
        let s = LevelSchedule::from_parents(&[5, 5, 5, 5, 5, -1]);
        assert_eq!(s.level_count(), 2);
        assert_eq!(s.level(0), &[0, 1, 2, 3, 4]);
        assert_eq!(s.level(1), &[5]);
        assert_eq!(s.max_width(), 5);
    }

    #[test]
    fn forest_roots_share_levels_and_order_is_ascending() {
        // Two trees: {0 → 2 → 4} and {1 → 3}; 5 isolated.
        let s = LevelSchedule::from_parents(&[2, 3, 4, -1, -1, -1]);
        assert_eq!(s.level_count(), 3);
        assert_eq!(s.level(0), &[0, 1, 5]);
        assert_eq!(s.level(1), &[2, 3]);
        assert_eq!(s.level(2), &[4]);
        assert_eq!(s.len(), 6);
        assert!(s.memory_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "not greater")]
    fn rejects_backward_parent() {
        LevelSchedule::from_parents(&[-1, 0]);
    }
}
