//! Every input generator's output is pinned by an FNV-1a digest.
//!
//! Inputs are pure functions of their size and seed, whatever the
//! machine's core count: the parallel generators must reproduce the
//! serial stream bit for bit. The sizes here are above the size at
//! which generation splits across threads, plus one small size that
//! runs inline.

use tpal::workloads::inputs::{
    arrowhead_matrix, dense_vector, exponential_ints, fw_graph, kmeans_points, powerlaw_matrix,
    random_matrix, uniform_ints, CsrMatrix,
};

/// 64-bit FNV-1a over the little-endian bytes of `xs`.
fn fnv1a(xs: &[i64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for x in xs {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn csr_digests(m: &CsrMatrix) -> [u64; 3] {
    [fnv1a(&m.row_ptr), fnv1a(&m.col_idx), fnv1a(&m.vals)]
}

#[test]
fn dense_vector_digest() {
    assert_eq!(fnv1a(&dense_vector(100_000, 0xA11CE)), 7151453059588640007);
    assert_eq!(fnv1a(&dense_vector(1_000, 0xB0B)), 472201440666418130);
}

#[test]
fn uniform_ints_digest() {
    assert_eq!(fnv1a(&uniform_ints(100_000, 0xE4A)), 2504795458233092543);
}

#[test]
fn exponential_ints_digest() {
    assert_eq!(
        fnv1a(&exponential_ints(100_000, 0xE4B)),
        15275700734141531619
    );
    assert_eq!(fnv1a(&exponential_ints(1_000, 0xE4B)), 5257237440542207252);
}

#[test]
fn powerlaw_matrix_digest() {
    let m = powerlaw_matrix(20_000, 20_000, 200_000, 0x005E_ED02);
    assert_eq!(
        csr_digests(&m),
        [
            14258715283456383296,
            6170566625812103822,
            9193920776769747757
        ]
    );
    let small = powerlaw_matrix(200, 200, 2_000, 0x57_2EA1);
    assert_eq!(
        csr_digests(&small),
        [
            15629241105149389771,
            10162932682844923386,
            790248470569556189
        ]
    );
}

#[test]
fn random_matrix_digest() {
    let m = random_matrix(10_000, 10_000, 8, 0x005E_ED01);
    assert_eq!(
        csr_digests(&m),
        [7328133388349891491, 204122006706256600, 6993516036203155277]
    );
}

#[test]
fn arrowhead_matrix_digest() {
    let m = arrowhead_matrix(50_000, 0x005E_ED03);
    assert_eq!(
        csr_digests(&m),
        [
            904086392550339765,
            11071969855818306469,
            17411243832999107044
        ]
    );
}

#[test]
fn fw_graph_digest() {
    assert_eq!(fnv1a(&fw_graph(300, 0xF10D)), 1511987002048989456);
}

#[test]
fn kmeans_points_digest() {
    assert_eq!(
        fnv1a(&kmeans_points(50_000, 4, 8, 0x4B4D)),
        16267512503128573975
    );
}
