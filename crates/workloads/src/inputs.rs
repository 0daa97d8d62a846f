//! Input generators: sparse matrices in CSR form (random, power-law,
//! arrowhead — §4.1), integer sequences from uniform and exponential
//! distributions, and points for kmeans.
//!
//! Everything is generated from fixed seeds so that all four builds of a
//! workload see identical inputs: each input is a pure function of its
//! size and seed. Generators that draw a fixed number of values per item
//! fill their output in parallel through [`par_fill`], which gives every
//! thread its own slice of one seeded stream by O(1) jump-ahead
//! ([`StdRng::skip`]), so the result is bit-identical at any thread
//! count. Generators whose draw count depends on the values drawn
//! (`random_matrix`, `fw_graph`) stay serial loops.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws one integer `gen_range` consumes (the shim samples 128 bits).
const INT_DRAWS: u64 = 2;
/// Draws one `f64` `gen_range` consumes.
const F64_DRAWS: u64 = 1;
/// Below this many items a fill runs inline as a single chunk: starting
/// threads would cost more than the draws.
const PAR_FILL_MIN: usize = 1 << 15;

/// Fills `out` from the stream of `StdRng::seed_from_u64(seed)`: item
/// `i` is `item(rng)` with `rng` at draw `offset + i × draws_per_item`
/// (`item` may use fewer draws, never more). The output is split into
/// one chunk per available core, each filled on its own thread.
fn par_fill<T: Send>(
    out: &mut [T],
    seed: u64,
    offset: u64,
    draws_per_item: u64,
    item: impl Fn(&mut StdRng) -> T + Sync,
) {
    let chunks = if out.len() < PAR_FILL_MIN {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    fill_chunks(out, seed, offset, draws_per_item, chunks, &item);
}

/// [`par_fill`] over `chunks` chunks; the first is filled on the
/// calling thread.
fn fill_chunks<T: Send>(
    out: &mut [T],
    seed: u64,
    offset: u64,
    draws_per_item: u64,
    chunks: usize,
    item: &(impl Fn(&mut StdRng) -> T + Sync),
) {
    let mut stream = StdRng::seed_from_u64(seed);
    stream.skip(offset);
    let fill = |first: usize, part: &mut [T]| {
        let mut rng = stream.clone();
        rng.skip(first as u64 * draws_per_item);
        for slot in part {
            *slot = item(&mut rng.clone());
            rng.skip(draws_per_item);
        }
    };
    let len = out.len().div_ceil(chunks).max(1);
    std::thread::scope(|s| {
        let mut parts = out.chunks_mut(len);
        let head = parts.next();
        for (c, part) in parts.enumerate() {
            let fill = &fill;
            s.spawn(move || fill((c + 1) * len, part));
        }
        if let Some(part) = head {
            fill(0, part);
        }
    });
}

/// A sparse matrix in compressed-sparse-row (CSR) form with integer
/// values (exact arithmetic keeps checksums schedule-independent).
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row start offsets (`rows + 1` entries).
    pub row_ptr: Vec<i64>,
    /// Column index per non-zero.
    pub col_idx: Vec<i64>,
    /// Value per non-zero.
    pub vals: Vec<i64>,
}

impl CsrMatrix {
    /// Total non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// `y = A·x` computed serially (the reference result).
    pub fn spmv_serial(&self, x: &[i64]) -> Vec<i64> {
        let mut y = vec![0i64; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let mut s = 0i64;
            for k in lo..hi {
                s = s.wrapping_add(self.vals[k].wrapping_mul(x[self.col_idx[k] as usize]));
            }
            *out = s;
        }
        y
    }
}

fn small_val(rng: &mut StdRng) -> i64 {
    rng.gen_range(-4i64..=4)
}

/// A uniformly random sparse matrix: every row gets `1..=2·avg-1`
/// non-zeros at uniformly random columns ("random", §4.1).
pub fn random_matrix(rows: usize, cols: usize, avg_nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_ptr = Vec::with_capacity(rows + 1);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    row_ptr.push(0);
    for _ in 0..rows {
        let k = rng.gen_range(1..=2 * avg_nnz_per_row.max(1) - 1);
        for _ in 0..k {
            col_idx.push(rng.gen_range(0..cols) as i64);
            vals.push(small_val(&mut rng));
        }
        row_ptr.push(col_idx.len() as i64);
    }
    CsrMatrix {
        rows,
        cols,
        row_ptr,
        col_idx,
        vals,
    }
}

/// A power-law matrix: row `i` receives about `c / (i+1)^α` non-zeros,
/// so a handful of early rows hold a large share of the work — the
/// irregularity that defeats uniform loop grains ("powerlaw", §4.1).
pub fn powerlaw_matrix(rows: usize, cols: usize, total_nnz: usize, seed: u64) -> CsrMatrix {
    let alpha = 1.0f64;
    let h: f64 = (1..=rows).map(|i| 1.0 / (i as f64).powf(alpha)).sum();
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0);
    let mut nnz = 0;
    for i in 0..rows {
        let share = (total_nnz as f64 / h) / ((i + 1) as f64).powf(alpha);
        nnz += (share.round() as usize).clamp(1, cols);
        row_ptr.push(nnz as i64);
    }
    // Non-zero `j` draws its column, then its value.
    let mut col_idx = vec![0; nnz];
    let mut vals = vec![0; nnz];
    par_fill(&mut col_idx, seed, 0, 2 * INT_DRAWS, |rng| {
        rng.gen_range(0..cols) as i64
    });
    par_fill(&mut vals, seed, INT_DRAWS, 2 * INT_DRAWS, small_val);
    CsrMatrix {
        rows,
        cols,
        row_ptr,
        col_idx,
        vals,
    }
}

/// An arrowhead matrix: dense first row, dense first column, and the
/// diagonal — "particularly challenging for task scheduling" (§4.1):
/// one giant row followed by uniformly tiny ones.
pub fn arrowhead_matrix(n: usize, seed: u64) -> CsrMatrix {
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::with_capacity(3 * n);
    row_ptr.push(0);
    // Row 0: all columns.
    col_idx.extend(0..n as i64);
    row_ptr.push(col_idx.len() as i64);
    // Rows 1..n: first column + diagonal.
    for r in 1..n {
        col_idx.extend([0, r as i64]);
        row_ptr.push(col_idx.len() as i64);
    }
    let mut vals = vec![0; col_idx.len()];
    par_fill(&mut vals, seed, 0, INT_DRAWS, small_val);
    CsrMatrix {
        rows: n,
        cols: n,
        row_ptr,
        col_idx,
        vals,
    }
}

/// A dense integer vector with entries in `[-8, 8]`.
pub fn dense_vector(n: usize, seed: u64) -> Vec<i64> {
    let mut v = vec![0; n];
    par_fill(&mut v, seed, 0, INT_DRAWS, |rng| rng.gen_range(-8i64..=8));
    v
}

/// Uniformly distributed integers (mergesort-uniform).
pub fn uniform_ints(n: usize, seed: u64) -> Vec<i64> {
    let mut v = vec![0; n];
    par_fill(&mut v, seed, 0, INT_DRAWS, |rng| {
        rng.gen_range(0..1_000_000_000i64)
    });
    v
}

/// Exponentially distributed integers (mergesort-exp): many small
/// values, a long tail — the paper's skewed input.
pub fn exponential_ints(n: usize, seed: u64) -> Vec<i64> {
    let mut v = vec![0; n];
    par_fill(&mut v, seed, 0, F64_DRAWS, |rng| {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (-u.ln() * 100_000.0) as i64
    });
    v
}

/// Clustered integer points for kmeans: `n` points in `d` dimensions
/// around `k` true centres.
pub fn kmeans_points(n: usize, d: usize, k: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<i64> = (0..k * d).map(|_| rng.gen_range(-1000i64..=1000)).collect();
    // Point `i` is centre `i % k` plus noise drawn after the centres.
    let noise_from = (k * d) as u64 * INT_DRAWS;
    let mut pts = vec![0; n * d];
    par_fill(&mut pts, seed, noise_from, INT_DRAWS, |rng| {
        rng.gen_range(-50i64..=50)
    });
    for i in 0..n {
        let c = i % k;
        for j in 0..d {
            pts[i * d + j] += centres[c * d + j];
        }
    }
    pts
}

/// An `n × n` weighted adjacency matrix for floyd-warshall, with `INF`
/// (a large sentinel) for missing edges.
pub fn fw_graph(n: usize, seed: u64) -> Vec<i64> {
    /// One quarter of `i64::MAX`: safe against overflow in min-plus.
    pub const INF: i64 = 1 << 40;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = vec![INF; n * n];
    for i in 0..n {
        g[i * n + i] = 0;
        for _ in 0..6 {
            let j = rng.gen_range(0..n);
            if j != i {
                g[i * n + j] = rng.gen_range(1i64..=100);
            }
        }
    }
    g
}

/// The floyd-warshall missing-edge sentinel.
pub const FW_INF: i64 = 1 << 40;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_counts_match_the_shim() {
        let mut drawn = StdRng::seed_from_u64(5);
        let mut skipped = drawn.clone();
        drawn.gen_range(-8i64..=8);
        skipped.skip(INT_DRAWS);
        assert_eq!(drawn.gen::<u64>(), skipped.gen::<u64>());
        drawn.gen_range(f64::EPSILON..1.0);
        skipped.skip(F64_DRAWS);
        assert_eq!(drawn.gen::<u64>(), skipped.gen::<u64>());
    }

    #[test]
    fn fill_is_the_same_at_any_chunk_count() {
        let fill = |chunks| {
            let mut v = vec![0i64; 1001];
            fill_chunks(&mut v, 11, 3, 4, chunks, &|rng: &mut StdRng| {
                rng.gen_range(0..1_000i64)
            });
            v
        };
        let one = fill(1);
        for chunks in [2, 3, 7] {
            assert_eq!(fill(chunks), one, "{chunks} chunks");
        }
        // Item `i` starts at draw `offset + i × draws_per_item`.
        let mut rng = StdRng::seed_from_u64(11);
        rng.skip(3 + 4 * 500);
        assert_eq!(one[500], rng.gen_range(0..1_000i64));
    }

    #[test]
    fn random_matrix_wellformed() {
        let m = random_matrix(100, 100, 8, 1);
        assert_eq!(m.row_ptr.len(), 101);
        assert_eq!(*m.row_ptr.last().unwrap() as usize, m.nnz());
        assert!(m.col_idx.iter().all(|&c| (c as usize) < m.cols));
        assert!(m.nnz() >= 100);
    }

    #[test]
    fn powerlaw_is_skewed() {
        let m = powerlaw_matrix(1000, 1000, 50_000, 2);
        let first = (m.row_ptr[1] - m.row_ptr[0]) as usize;
        let last = (m.row_ptr[1000] - m.row_ptr[999]) as usize;
        assert!(first > 50 * last, "first row {first} vs last {last}");
    }

    #[test]
    fn arrowhead_shape() {
        let m = arrowhead_matrix(10, 3);
        assert_eq!(m.nnz(), 10 + 9 * 2);
        // Row 0 is dense.
        assert_eq!(m.row_ptr[1] - m.row_ptr[0], 10);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform_ints(50, 9), uniform_ints(50, 9));
        assert_eq!(exponential_ints(50, 9), exponential_ints(50, 9));
        let a = random_matrix(20, 20, 4, 7);
        let b = random_matrix(20, 20, 4, 7);
        assert_eq!(a.vals, b.vals);
    }

    #[test]
    fn exponential_is_skewed() {
        let v = exponential_ints(10_000, 4);
        let mean = v.iter().sum::<i64>() / v.len() as i64;
        let below = v.iter().filter(|&&x| x < mean).count();
        assert!(below > 5_500, "exponential: {below} below mean");
    }

    #[test]
    fn spmv_serial_reference() {
        // [[1, 2], [0, 3]] · [10, 20] = [50, 60]
        let m = CsrMatrix {
            rows: 2,
            cols: 2,
            row_ptr: vec![0, 2, 3],
            col_idx: vec![0, 1, 1],
            vals: vec![1, 2, 3],
        };
        assert_eq!(m.spmv_serial(&[10, 20]), vec![50, 60]);
    }

    #[test]
    fn fw_graph_diagonal_zero() {
        let g = fw_graph(8, 5);
        for i in 0..8 {
            assert_eq!(g[i * 8 + i], 0);
        }
    }
}
