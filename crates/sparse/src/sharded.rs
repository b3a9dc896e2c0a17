//! Sharded storage: a symmetric matrix split into per-domain CSR blocks.
//!
//! [`ShardedBackend`] stores a symmetric matrix as the block-arrow form
//! induced by a vertex separator ([`crate::ordering::vertex_separator`]):
//! `k` interior domain blocks `A_dd` (each a [`CsrMatrix`] with **local**
//! row/column numbering), the domain↔separator coupling
//! blocks `A_ds`, and the separator rows. Because no edge connects two
//! distinct domains, each domain block is independent — the unit of
//! parallel work ([`ShardedBackend::par_mul_vec_into`] fans one lane out
//! per domain) and the unit of **out-of-core** residency: in spill mode
//! the domain matrices live on disk as Matrix Market files
//! ([`crate::mmio`]) and at most one non-resident domain is loaded at a
//! time, so matrices larger than RAM stay usable.
//!
//! # Tolerance contract
//!
//! [`ShardedBackend`] products are **not** bit-for-bit identical to the
//! monolithic [`CsrMatrix`]: a domain row's sum associates
//! as (domain columns) + (separator columns) instead of the original
//! ascending-column order. Products are still deterministic at every
//! worker count, and every row differs from the CSR product only by
//! floating-point reassociation (relative error at machine-epsilon
//! scale). Separator rows are stored in original column order and *are*
//! bit-exact. The `sharded` tests pin both properties down.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::ordering::{vertex_separator, SeparatorParts};
use crate::{mmio, pool, CooMatrix, CsrMatrix, Result};

/// The block-arrow pieces of a symmetric matrix under a vertex-separator
/// decomposition, in local numbering — what [`ShardedBackend`] stores
/// and the substructured solver factorizes.
#[derive(Debug, Clone)]
pub struct ShardedBlocks {
    /// Domain diagonal blocks `A_dd` (`n_d × n_d`, domain-local indices).
    pub a_dd: Vec<CsrMatrix>,
    /// Domain→separator couplings `A_ds` (`n_d × n_s`, domain-local rows,
    /// separator-local columns). `A_sd = A_dsᵀ` by symmetry.
    pub a_ds: Vec<CsrMatrix>,
    /// Separator diagonal block `A_ss` (`n_s × n_s`, separator-local).
    pub a_ss: CsrMatrix,
    /// The separator rows verbatim (`n_s × n`, **original** columns) —
    /// kept alongside the local blocks so separator products reproduce
    /// the monolithic row sums bit-for-bit.
    pub sep_rows: CsrMatrix,
}

/// Extracts the block-arrow pieces of `a` under `parts`.
///
/// # Panics
///
/// Panics if `parts` was not computed from `a`'s pattern (dimension
/// mismatch, or an entry coupling two distinct domains).
pub fn extract_blocks(a: &CsrMatrix, parts: &SeparatorParts) -> ShardedBlocks {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "extract_blocks: matrix must be square");
    assert_eq!(parts.n(), n, "extract_blocks: parts cover a different n");
    let k = parts.domain_count();
    // Local index of every vertex inside its own part.
    let mut local_of = vec![0u32; n];
    for d in 0..k {
        for (i, &v) in parts.domain(d).iter().enumerate() {
            local_of[v] = i as u32;
        }
    }
    for (i, &v) in parts.separator().iter().enumerate() {
        local_of[v] = i as u32;
    }
    let domain_of = parts.domain_of();

    let mut a_dd = Vec::with_capacity(k);
    let mut a_ds = Vec::with_capacity(k);
    for d in 0..k {
        let rows = parts.domain(d);
        let nd = rows.len();
        let (mut dd_p, mut dd_i, mut dd_x) = (Vec::with_capacity(nd + 1), Vec::new(), Vec::new());
        let (mut ds_p, mut ds_i, mut ds_x) = (Vec::with_capacity(nd + 1), Vec::new(), Vec::new());
        dd_p.push(0usize);
        ds_p.push(0usize);
        for &u in rows {
            let (cols, vals) = a.row(u);
            for (&c, &v) in cols.iter().zip(vals) {
                let w = c as usize;
                if domain_of[w] == d as u32 {
                    dd_i.push(local_of[w]);
                    dd_x.push(v);
                } else {
                    assert_eq!(
                        domain_of[w],
                        SeparatorParts::SEPARATOR,
                        "extract_blocks: entry ({u}, {w}) couples two domains"
                    );
                    ds_i.push(local_of[w]);
                    ds_x.push(v);
                }
            }
            dd_p.push(dd_i.len());
            ds_p.push(ds_i.len());
        }
        let ns = parts.separator().len();
        a_dd.push(CsrMatrix::from_raw_parts(nd, nd, dd_p, dd_i, dd_x));
        a_ds.push(CsrMatrix::from_raw_parts(nd, ns, ds_p, ds_i, ds_x));
    }

    let ns = parts.separator().len();
    let (mut ss_p, mut ss_i, mut ss_x) = (Vec::with_capacity(ns + 1), Vec::new(), Vec::new());
    let (mut sr_p, mut sr_i, mut sr_x) = (Vec::with_capacity(ns + 1), Vec::new(), Vec::new());
    ss_p.push(0usize);
    sr_p.push(0usize);
    for &u in parts.separator() {
        let (cols, vals) = a.row(u);
        for (&c, &v) in cols.iter().zip(vals) {
            let w = c as usize;
            sr_i.push(c);
            sr_x.push(v);
            if domain_of[w] == SeparatorParts::SEPARATOR {
                ss_i.push(local_of[w]);
                ss_x.push(v);
            }
        }
        ss_p.push(ss_i.len());
        sr_p.push(sr_i.len());
    }
    ShardedBlocks {
        a_dd,
        a_ds,
        a_ss: CsrMatrix::from_raw_parts(ns, ns, ss_p, ss_i, ss_x),
        sep_rows: CsrMatrix::from_raw_parts(ns, n, sr_p, sr_i, sr_x),
    }
}

/// Construction knobs for [`ShardedBackend::with_options`] (and the
/// substructured solver, which shares them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOptions {
    /// Requested domain count; `0` picks a size-based heuristic. The
    /// actual count can differ (shallow regions stop splitting,
    /// disconnected components split for free) — read it back from
    /// [`ShardedBackend::domain_count`].
    pub domains: usize,
    /// Spill the domain matrices to disk and keep at most one
    /// non-resident domain loaded at a time.
    pub out_of_core: bool,
    /// Directory for spill files; `None` uses the system temp dir. A
    /// fresh uniquely-named subdirectory is created either way and
    /// removed when the last owner drops.
    pub spill_dir: Option<PathBuf>,
}

/// Monotone id source for spill subdirectory names (one per store, so
/// concurrent stores in one process never collide).
static SPILL_ID: AtomicU64 = AtomicU64::new(0);

/// On-disk home of a sharded matrix's domain blocks: one Matrix Market
/// file per domain in a uniquely-named directory that is deleted when
/// the last [`Arc`] owner drops. Shared by [`ShardedBackend`]'s
/// out-of-core mode and the substructured solver in `sass-solver`.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    files: Vec<PathBuf>,
    nnz: Vec<usize>,
    nrows: Vec<usize>,
}

impl SpillStore {
    /// Writes every matrix in `mats` to its own file under a fresh
    /// subdirectory of `dir` (system temp dir when `None`).
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure as [`SparseError::Io`](crate::SparseError::Io).
    pub fn create(mats: &[CsrMatrix], dir: Option<&Path>) -> Result<Arc<SpillStore>> {
        let base = dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let unique = format!(
            "sass-shard-{}-{}",
            std::process::id(),
            SPILL_ID.fetch_add(1, Ordering::Relaxed)
        );
        let dir = base.join(unique);
        std::fs::create_dir_all(&dir)?;
        let mut files = Vec::with_capacity(mats.len());
        let mut nnz = Vec::with_capacity(mats.len());
        let mut nrows = Vec::with_capacity(mats.len());
        for (d, m) in mats.iter().enumerate() {
            let path = dir.join(format!("domain-{d}.mtx"));
            mmio::write_path(m, &path)?;
            files.push(path);
            nnz.push(m.nnz());
            nrows.push(m.nrows());
        }
        Ok(Arc::new(SpillStore {
            dir,
            files,
            nnz,
            nrows,
        }))
    }

    /// Reads domain `d` back from disk.
    ///
    /// # Errors
    ///
    /// Propagates any I/O or parse failure as a [`SparseError`](crate::SparseError).
    ///
    /// # Panics
    ///
    /// Panics if `d >= len()`.
    pub fn load(&self, d: usize) -> Result<CsrMatrix> {
        Ok(mmio::read_path(&self.files[d])?.to_csr())
    }

    /// Number of spilled domain matrices.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the store holds no domains.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Stored nonzeros of domain `d` (recorded at spill time, readable
    /// without touching disk).
    pub fn domain_nnz(&self, d: usize) -> usize {
        self.nnz[d]
    }

    /// Rows of domain `d` (recorded at spill time).
    pub fn domain_nrows(&self, d: usize) -> usize {
        self.nrows[d]
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Best-effort cleanup: a failure to remove a temp file must not
        // panic in drop (double-panic aborts), so errors are swallowed.
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
        let _ = std::fs::remove_dir(&self.dir);
    }
}

/// Where a sharded backend's domain blocks live.
enum DomainStore {
    /// All `k` domain blocks resident.
    InCore(Vec<CsrMatrix>),
    /// Domain matrices on disk; at most one loaded at a time.
    OutOfCore {
        store: Arc<SpillStore>,
        /// The single resident domain (index + block), behind a lock
        /// because loads happen inside `&self` product calls.
        resident: Mutex<Option<(usize, CsrMatrix)>>,
        /// High-water mark of resident domain bytes, for the
        /// out-of-core memory headline.
        peak_resident: AtomicUsize,
    },
}

/// A sparse matrix sharded into per-domain CSR blocks by a vertex
/// separator — see the module docs for layout, parallelism, and
/// the tolerance contract.
///
/// # Example
///
/// ```
/// use sass_sparse::{CooMatrix, ShardedBackend};
///
/// let mut coo = CooMatrix::new(4, 4);
/// for i in 0..4 { coo.push(i, i, 2.0); }
/// for i in 0..3 { coo.push_sym(i, i + 1, -1.0); }
/// let a = coo.to_csr();
/// let s = ShardedBackend::in_core(&a, 0);
/// let y = s.mul_vec(&[1.0, 2.0, 3.0, 4.0]);
/// for (got, want) in y.iter().zip(a.mul_vec(&[1.0, 2.0, 3.0, 4.0])) {
///     assert!((got - want).abs() < 1e-12);
/// }
/// ```
pub struct ShardedBackend {
    n: usize,
    parts: Arc<SeparatorParts>,
    /// Domain start offsets in the renumbering (`k + 1` entries; the
    /// last is the separator start).
    offsets: Vec<usize>,
    /// Renumbering scatter: `new_of_old[v]` is `v`'s position in the
    /// (domains…, separator) ordering.
    new_of_old: Vec<u32>,
    /// Domain→separator couplings, always resident (they are the small
    /// part; only the domain diagonal blocks spill).
    a_ds: Vec<CsrMatrix>,
    /// Separator rows in original column numbering (bit-exact products).
    sep_rows: CsrMatrix,
    store: DomainStore,
    total_nnz: usize,
}

impl ShardedBackend {
    /// Builds a sharded backend with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates spill I/O failures ([`SparseError::Io`](crate::SparseError::Io)) in
    /// out-of-core mode; in-core construction is infallible.
    pub fn with_options(a: &CsrMatrix, opts: &ShardOptions) -> Result<Self> {
        let mut backend = Self::in_core(a, opts.domains);
        if opts.out_of_core {
            let DomainStore::InCore(domains) = &backend.store else {
                unreachable!("in_core construction always yields InCore storage");
            };
            let store = SpillStore::create(domains, opts.spill_dir.as_deref())?;
            backend.store = DomainStore::OutOfCore {
                store,
                resident: Mutex::new(None),
                peak_resident: AtomicUsize::new(0),
            };
        }
        Ok(backend)
    }

    /// In-core construction with `domains` interior domains; `0` picks
    /// the auto heuristic (one domain per ~64k rows, clamped to 2..=16).
    pub fn in_core(a: &CsrMatrix, domains: usize) -> Self {
        let n = a.nrows();
        let k = if domains == 0 {
            // One domain per ~64k rows, at least 2, at most 16 — small
            // matrices still exercise the sharded path, huge ones keep
            // domains near cache size.
            (n / 65_536).clamp(2, 16)
        } else {
            domains
        };
        let parts = vertex_separator(a, k);
        let blocks = extract_blocks(a, &parts);
        let offsets = parts.offsets();
        let renum = match parts.renumbering() {
            Ok(p) => p,
            Err(_) => unreachable!("a partition's renumbering is a permutation"),
        };
        let new_of_old: Vec<u32> = renum.new_of_old().iter().map(|&v| v as u32).collect();
        ShardedBackend {
            n,
            parts: Arc::new(parts),
            offsets,
            new_of_old,
            a_ds: blocks.a_ds,
            sep_rows: blocks.sep_rows,
            store: DomainStore::InCore(blocks.a_dd),
            total_nnz: a.nnz(),
        }
    }

    /// The vertex-separator decomposition backing this matrix.
    pub fn parts(&self) -> &SeparatorParts {
        &self.parts
    }

    /// Number of interior domains.
    pub fn domain_count(&self) -> usize {
        self.parts.domain_count()
    }

    /// Separator size.
    pub fn separator_len(&self) -> usize {
        self.parts.separator().len()
    }

    /// Whether domain blocks live on disk.
    pub fn is_out_of_core(&self) -> bool {
        matches!(self.store, DomainStore::OutOfCore { .. })
    }

    /// High-water mark of resident domain-block bytes. In-core this is
    /// simply all domain blocks; out-of-core it is the largest single
    /// domain loaded so far — the number the shard bench compares
    /// against a monolithic factor's memory.
    pub fn peak_resident_bytes(&self) -> usize {
        match &self.store {
            DomainStore::InCore(domains) => domains.iter().map(CsrMatrix::memory_bytes).sum(),
            DomainStore::OutOfCore { peak_resident, .. } => peak_resident.load(Ordering::Relaxed),
        }
    }

    /// Bytes always resident regardless of mode: couplings, separator
    /// rows, and the renumbering arrays.
    fn overhead_bytes(&self) -> usize {
        self.a_ds.iter().map(CsrMatrix::memory_bytes).sum::<usize>()
            + self.sep_rows.memory_bytes()
            + self.new_of_old.len() * std::mem::size_of::<u32>()
            + self.offsets.len() * std::mem::size_of::<usize>()
    }

    /// Runs `f` with domain `d`'s block, loading it from disk first in
    /// out-of-core mode (evicting whichever domain was resident).
    ///
    /// # Panics
    ///
    /// Panics if an out-of-core spill file cannot be re-read — the
    /// product APIs this feeds have no error channel, and a vanished
    /// spill file means the backend's storage invariant is gone.
    fn with_domain<R>(&self, d: usize, f: impl FnOnce(&CsrMatrix) -> R) -> R {
        match &self.store {
            DomainStore::InCore(domains) => f(&domains[d]),
            DomainStore::OutOfCore {
                store,
                resident,
                peak_resident,
            } => {
                let mut slot = match resident.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                let cached = matches!(slot.as_ref(), Some((idx, _)) if *idx == d);
                if !cached {
                    *slot = None; // evict before loading: one resident max
                    let b = match store.load(d) {
                        Ok(m) => m,
                        Err(e) => panic!("sharded backend: spill reload of domain {d} failed: {e}"),
                    };
                    peak_resident.fetch_max(b.memory_bytes(), Ordering::Relaxed);
                    *slot = Some((d, b));
                }
                let Some((_, b)) = slot.as_ref() else {
                    unreachable!("resident slot was just filled");
                };
                f(b)
            }
        }
    }

    /// Computes the `y` entries of one part (domain `d < k`, separator
    /// at `s == k`) into `chunk`, the part's contiguous range of the
    /// renumbered output.
    fn part_into(&self, s: usize, chunk: &mut [f64], x: &[f64], x_s: &[f64]) {
        let k = self.domain_count();
        if s == k {
            // Separator rows: original column order, bit-exact.
            for (i, yi) in chunk.iter_mut().enumerate() {
                let (cols, vals) = self.sep_rows.row(i);
                let mut acc = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    acc += v * x[c as usize];
                }
                *yi = acc;
            }
            return;
        }
        let rows = self.parts.domain(s);
        let mut x_d = vec![0.0; rows.len()];
        for (xi, &old) in x_d.iter_mut().zip(rows) {
            *xi = x[old];
        }
        self.with_domain(s, |b| b.mul_vec_into(&x_d, chunk));
        let ds = &self.a_ds[s];
        for (i, yi) in chunk.iter_mut().enumerate() {
            let (cols, vals) = ds.row(i);
            let mut acc = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                acc += v * x_s[c as usize];
            }
            *yi += acc;
        }
    }

    /// Gathers the separator slice of `x`.
    fn gather_sep(&self, x: &[f64]) -> Vec<f64> {
        self.parts.separator().iter().map(|&v| x[v]).collect()
    }

    /// Scatters the renumbered product back to original numbering.
    fn scatter(&self, y_new: &[f64], y: &mut [f64]) {
        for (old, &new) in self.new_of_old.iter().enumerate() {
            y[old] = y_new[new as usize];
        }
    }
}

impl Clone for ShardedBackend {
    fn clone(&self) -> Self {
        let store = match &self.store {
            DomainStore::InCore(domains) => DomainStore::InCore(domains.clone()),
            DomainStore::OutOfCore {
                store,
                peak_resident,
                ..
            } => DomainStore::OutOfCore {
                store: Arc::clone(store),
                // The clone starts with nothing resident; the peak
                // carries over (it describes the shared spill history).
                resident: Mutex::new(None),
                peak_resident: AtomicUsize::new(peak_resident.load(Ordering::Relaxed)),
            },
        };
        ShardedBackend {
            n: self.n,
            parts: Arc::clone(&self.parts),
            offsets: self.offsets.clone(),
            new_of_old: self.new_of_old.clone(),
            a_ds: self.a_ds.clone(),
            sep_rows: self.sep_rows.clone(),
            store,
            total_nnz: self.total_nnz,
        }
    }
}

impl fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("n", &self.n)
            .field("domains", &self.domain_count())
            .field("separator", &self.separator_len())
            .field("out_of_core", &self.is_out_of_core())
            .finish()
    }
}

impl ShardedBackend {
    /// Reassembles the full matrix in original numbering.
    pub fn to_csr(&self) -> CsrMatrix {
        // Entry-exact reassembly: every stored value is copied, never
        // recomputed, so the round trip reproduces the input verbatim.
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.total_nnz);
        for d in 0..self.domain_count() {
            let rows = self.parts.domain(d);
            let dd = self.with_domain(d, CsrMatrix::clone);
            for (i, &u) in rows.iter().enumerate() {
                let (cols, vals) = dd.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    coo.push(u, rows[c as usize], v);
                }
                let (cols, vals) = self.a_ds[d].row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    coo.push(u, self.parts.separator()[c as usize], v);
                }
            }
        }
        for (i, &u) in self.parts.separator().iter().enumerate() {
            let (cols, vals) = self.sep_rows.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(u, c as usize, v);
            }
        }
        coo.to_csr()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.n
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.n
    }

    /// Number of stored entries across domain blocks, couplings and
    /// separator rows — the same count as the monolithic matrix.
    pub fn nnz(&self) -> usize {
        let domain_scalars: usize = match &self.store {
            DomainStore::InCore(domains) => domains.iter().map(CsrMatrix::nnz).sum(),
            DomainStore::OutOfCore { store, .. } => {
                (0..store.len()).map(|d| store.domain_nnz(d)).sum()
            }
        };
        domain_scalars + self.a_ds.iter().map(CsrMatrix::nnz).sum::<usize>() + self.sep_rows.nnz()
    }

    /// Approximate heap memory held by the matrix, in bytes: resident
    /// domain blocks plus couplings, separator rows and renumbering.
    pub fn memory_bytes(&self) -> usize {
        let resident: usize = match &self.store {
            DomainStore::InCore(domains) => domains.iter().map(CsrMatrix::memory_bytes).sum(),
            DomainStore::OutOfCore { resident, .. } => {
                let slot = match resident.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                slot.as_ref().map_or(0, |(_, b)| b.memory_bytes())
            }
        };
        resident + self.overhead_bytes()
    }

    /// Matrix-vector product `y = A·x` on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differ from the dimension.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.n, "mul_vec: y length mismatch");
        if self.n == 0 {
            return;
        }
        let x_s = self.gather_sep(x);
        let mut y_new = vec![0.0; self.n];
        let k = self.domain_count();
        for s in 0..=k {
            let lo = if s == k {
                self.offsets[k]
            } else {
                self.offsets[s]
            };
            let hi = if s == k { self.n } else { self.offsets[s + 1] };
            self.part_into(s, &mut y_new[lo..hi], x, &x_s);
        }
        self.scatter(&y_new, y);
    }

    /// Allocating form of [`ShardedBackend::mul_vec_into`].
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Matrix-vector product with one pool lane per domain, bit-for-bit
    /// identical to [`ShardedBackend::mul_vec_into`] at every worker
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` or `y.len()` differ from the dimension.
    pub fn par_mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        // Out-of-core residency is a lock around one resident domain —
        // fanning out would serialize on it anyway, so spill mode stays
        // on the caller's thread.
        if self.is_out_of_core() || self.domain_count() <= 1 {
            self.mul_vec_into(x, y);
            return;
        }
        assert_eq!(x.len(), self.n, "mul_vec: x length mismatch");
        assert_eq!(y.len(), self.n, "mul_vec: y length mismatch");
        let x_s = self.gather_sep(x);
        let mut y_new = vec![0.0; self.n];
        let k = self.domain_count();
        // One span per domain plus the separator tail — the per-domain
        // fan-out; each part owns its contiguous renumbered range, so
        // the race-check tracker sees disjoint exact-cover spans.
        let mut spans: Vec<pool::Span> = (0..k)
            .map(|d| (self.offsets[d], self.offsets[d + 1]))
            .collect();
        spans.push((self.offsets[k], self.n));
        pool::Pool::global().parallel_for_disjoint_mut(&mut y_new, &spans, |s, chunk| {
            self.part_into(s, chunk, x, &x_s);
        });
        self.scatter(&y_new, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                coo.push(
                    id(x, y),
                    id(x, y),
                    4.0 + ((x * 7 + y * 3) % 5) as f64 * 0.25,
                );
                if x + 1 < nx {
                    coo.push_sym(id(x, y), id(x + 1, y), -1.0 - (x % 3) as f64 * 0.1);
                }
                if y + 1 < ny {
                    coo.push_sym(id(x, y), id(x, y + 1), -1.0 - (y % 2) as f64 * 0.2);
                }
            }
        }
        coo.to_csr()
    }

    fn probe(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 13 % 31) as f64 * 0.37).sin())
            .collect()
    }

    /// Sharded products agree with CSR to reassociation tolerance, and
    /// separator rows exactly.
    fn check_products(a: &CsrMatrix, s: &ShardedBackend) {
        let x = probe(a.nrows());
        let want = a.mul_vec(&x);
        let got = s.mul_vec(&x);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs().max(1.0),
                "row {i}: {g} vs {w}"
            );
        }
        for &v in s.parts().separator() {
            assert_eq!(got[v], want[v], "separator row {v} must be bit-exact");
        }
        let mut y = vec![0.0; a.nrows()];
        s.par_mul_vec_into(&x, &mut y);
        assert_eq!(y, got, "parallel product must match serial bit-for-bit");
    }

    #[test]
    fn extract_blocks_partitions_every_entry() {
        let a = grid(9, 8);
        let parts = vertex_separator(&a, 3);
        let blocks = extract_blocks(&a, &parts);
        let nnz: usize = blocks.a_dd.iter().map(CsrMatrix::nnz).sum::<usize>()
            + blocks.a_ds.iter().map(CsrMatrix::nnz).sum::<usize>()
            + blocks.sep_rows.nnz();
        assert_eq!(nnz, a.nnz(), "every entry lands in exactly one block");
        // sep_rows subsumes a_ss plus the A_sd mirrors of every coupling.
        let couplings: usize = blocks.a_ds.iter().map(CsrMatrix::nnz).sum();
        assert_eq!(blocks.sep_rows.nnz(), blocks.a_ss.nnz() + couplings);
    }

    #[test]
    fn in_core_products_match_csr() {
        let a = grid(13, 11);
        for k in [1usize, 2, 3, 5] {
            let s: ShardedBackend = ShardedBackend::with_options(
                &a,
                &ShardOptions {
                    domains: k,
                    ..Default::default()
                },
            )
            .unwrap();
            check_products(&a, &s);
        }
        // Auto heuristic.
        let s = ShardedBackend::in_core(&a, 0);
        assert!(s.domain_count() >= 2);
        check_products(&a, &s);
    }

    #[test]
    fn to_csr_round_trips_exactly() {
        let a = grid(10, 7);
        let s = ShardedBackend::in_core(&a, 0);
        let back = s.to_csr();
        assert_eq!(back.indptr(), a.indptr());
        assert_eq!(back.indices(), a.indices());
        assert_eq!(back.data(), a.data());
        assert_eq!(s.nnz(), a.nnz());
    }

    #[test]
    fn out_of_core_round_trips_and_bounds_residency() {
        let a = grid(12, 12);
        let opts = ShardOptions {
            domains: 4,
            out_of_core: true,
            spill_dir: None,
        };
        let s: ShardedBackend = ShardedBackend::with_options(&a, &opts).unwrap();
        assert!(s.is_out_of_core());
        check_products(&a, &s);
        let back = s.to_csr();
        assert_eq!(back.data(), a.data(), "spill round trip must be exact");
        // Peak residency: at most the largest single domain, strictly
        // below the sum of all domain blocks.
        let in_core: ShardedBackend = ShardedBackend::with_options(
            &a,
            &ShardOptions {
                domains: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(s.peak_resident_bytes() > 0);
        assert!(
            s.peak_resident_bytes() < in_core.peak_resident_bytes(),
            "one resident domain must undercut all-resident: {} vs {}",
            s.peak_resident_bytes(),
            in_core.peak_resident_bytes()
        );
        assert!(s.memory_bytes() < in_core.memory_bytes());
    }

    #[test]
    fn spill_files_are_cleaned_up_on_drop() {
        let a = grid(6, 6);
        let opts = ShardOptions {
            domains: 2,
            out_of_core: true,
            spill_dir: None,
        };
        let s: ShardedBackend = ShardedBackend::with_options(&a, &opts).unwrap();
        let dir = match &s.store {
            DomainStore::OutOfCore { store, .. } => store.dir().to_path_buf(),
            DomainStore::InCore(_) => unreachable!("constructed out of core"),
        };
        assert!(dir.exists());
        let clone = s.clone();
        drop(s);
        assert!(dir.exists(), "clone still owns the spill store");
        drop(clone);
        assert!(!dir.exists(), "last owner must remove the spill dir");
    }

    #[test]
    fn empty_matrix_is_harmless() {
        let a = CooMatrix::new(0, 0).to_csr();
        let s = ShardedBackend::in_core(&a, 0);
        assert_eq!(s.nrows(), 0);
        assert!(s.mul_vec(&[]).is_empty());
        assert_eq!(s.to_csr().nnz(), 0);
    }
}
