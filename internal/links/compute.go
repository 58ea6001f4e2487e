package links

import "math/bits"

// ComputeDenseMatrix squares the boolean adjacency matrix directly — the
// O(n³) formulation Section 4.4 mentions first. It exists to validate the
// Figure 4 algorithm and to quantify, in the ablation benchmarks, how much
// the sparse algorithm saves; it should not be used for large inputs.
func ComputeDenseMatrix(nb *Neighbors) *Table {
	n := nb.N()
	// Pack the adjacency matrix into bitset rows so the inner product is
	// a word-parallel popcount — a "blocked" matrix squaring.
	words := (n + 63) / 64
	adj := make([][]uint64, n)
	for i := 0; i < n; i++ {
		row := make([]uint64, words)
		for _, j := range nb.Lists[i] {
			row[j/64] |= 1 << (uint(j) % 64)
		}
		adj[i] = row
	}
	m := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 0
			ri, rj := adj[i], adj[j]
			for w := 0; w < words; w++ {
				c += popcount(ri[w] & rj[w])
			}
			// Common neighbors exclude the endpoints themselves; the
			// neighbor lists never contain self, but i may be a neighbor
			// of j (and vice versa) — those entries are x = i or x = j
			// with x a neighbor of itself, which cannot happen, so no
			// correction is needed here.
			m[i*n+j], m[j*n+i] = uint32(c), uint32(c)
		}
	}
	return fromMatrix(n, m)
}

// ComputeNaiveMatrix is the textbook triple loop over the adjacency matrix,
// kept as the slowest cross-check and as the baseline for the matrix-
// squaring ablation bench.
func ComputeNaiveMatrix(nb *Neighbors) *Table {
	n := nb.N()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for _, j := range nb.Lists[i] {
			adj[i][j] = true
		}
	}
	m := make([]uint32, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 0
			for l := 0; l < n; l++ {
				if adj[i][l] && adj[l][j] {
					c++
				}
			}
			m[i*n+j], m[j*n+i] = uint32(c), uint32(c)
		}
	}
	return fromMatrix(n, m)
}

// fromMatrix packs a symmetric row-major n×n count matrix into a Table.
func fromMatrix(n int, m []uint32) *Table {
	t := &Table{ptr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		for j, c := range m[i*n : (i+1)*n] {
			if c > 0 && j != i {
				t.cols = append(t.cols, int32(j))
				t.vals = append(t.vals, c)
			}
		}
		t.ptr[i+1] = int64(len(t.cols))
	}
	return t
}

// ComputePath3 counts length-3 paths between pairs of points in the neighbor
// graph: the alternative link definition Section 3.2 raises and rejects on
// cost grounds. link3(p, q) = Σ_{x∈N(p), y∈N(q)} [x~y], x,y distinct from
// p, q. It builds each row with Compute's dense accumulator, one point at a
// time.
// Used only by the ablation benchmarks.
func ComputePath3(nb *Neighbors) *Table {
	n := nb.N()
	rowCols, rowVals := make([][]int32, n), make([][]uint32, n)
	counts := make([]uint32, n)
	var touched []int32
	for p := 0; p < n; p++ {
		for _, x := range nb.Lists[p] {
			for _, y := range nb.Lists[x] {
				if int(y) == p {
					continue
				}
				// p - x - y - q for every neighbor q of y.
				for _, q := range nb.Lists[y] {
					if int(q) == p || q == x {
						continue
					}
					if counts[q] == 0 {
						touched = append(touched, q)
					}
					counts[q]++
				}
			}
		}
		rowCols[p], rowVals[p] = emitRow(counts, touched)
		touched = touched[:0]
	}
	return pack(rowCols, rowVals)
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
