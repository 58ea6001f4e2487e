package links

import (
	"runtime"
	"slices"
	"sync"
)

// Table holds the link counts of n points in compressed sparse row form.
// Row i lists every j with link(i, j) > 0 in ascending j order, never i
// itself; both (i, j) and (j, i) are stored, so a row is the complete link
// list of its point. Space is O(nnz), which Section 4.5 bounds by
// O(min{n·m_m·m_a, n²}).
type Table struct {
	ptr  []int64  // row i is cols[ptr[i]:ptr[i+1]]; len n+1
	cols []int32  // column indices, ascending within a row
	vals []uint32 // link counts aligned with cols, all positive
}

// N returns the number of points.
func (t *Table) N() int { return len(t.ptr) - 1 }

// Row returns point i's linked points in ascending order and the link count
// to each. The slices alias the table and must not be modified.
func (t *Table) Row(i int) (cols []int32, vals []uint32) {
	lo, hi := t.ptr[i], t.ptr[i+1]
	return t.cols[lo:hi], t.vals[lo:hi]
}

// Get returns link(i, j), the number of common neighbors of i and j.
func (t *Table) Get(i, j int) int {
	cols, vals := t.Row(i)
	if k, ok := slices.BinarySearch(cols, int32(j)); ok {
		return int(vals[k])
	}
	return 0
}

// NonZeroPairs returns the number of unordered pairs with a positive link
// count (a size/memory diagnostic used by the benchmarks).
func (t *Table) NonZeroPairs() int { return len(t.cols) / 2 }

// Compute builds the link table of Section 4.4. Figure 4 counts links by
// visiting every point and adding one link to each unordered pair of its
// neighbors; because the neighbor relation is symmetric, the same counts
// come out row by row as row i = Σ_{k∈N(i)} N(k), a row-wise sparse product
// of the adjacency matrix with itself (Gustavson's SpGEMM formulation). The
// work is the paper's O(Σ_i m_i²), each step one increment of a dense
// per-worker accumulator, and rows are independent, so they are striped
// across workers with no atomics and no merge. workers <= 0 means
// GOMAXPROCS.
func Compute(nb *Neighbors, workers int) *Table {
	n := nb.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))

	rowCols, rowVals := make([][]int32, n), make([][]uint32, n)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counts := make([]uint32, n)
			var touched []int32
			for i := g; i < n; i += workers {
				for _, k := range nb.Lists[i] {
					for _, j := range nb.Lists[k] {
						c := counts[j]
						if c == 0 {
							touched = append(touched, j)
						}
						counts[j] = c + 1
					}
				}
				counts[i] = 0 // i is a neighbor of each of its neighbors
				rowCols[i], rowVals[i] = emitRow(counts, touched)
				touched = touched[:0]
			}
		}(g)
	}
	wg.Wait()
	return pack(rowCols, rowVals)
}

// ComputeParallel is Compute.
//
// Deprecated: denseLimit is ignored; one CSR table serves every size. Use
// Compute.
func ComputeParallel(nb *Neighbors, denseLimit, workers int) *Table {
	return Compute(nb, workers)
}

// DefaultDenseLimit was the largest point count for which Compute chose a
// dense triangular table.
//
// Deprecated: ignored; one CSR table serves every size.
const DefaultDenseLimit = 4096

// emitRow returns the positive counts among the touched columns in
// ascending column order, and clears them for the next row.
func emitRow(counts []uint32, touched []int32) ([]int32, []uint32) {
	slices.Sort(touched)
	cols, vals := make([]int32, 0, len(touched)), make([]uint32, 0, len(touched))
	for _, j := range touched {
		if c := counts[j]; c > 0 {
			cols = append(cols, j)
			vals = append(vals, c)
			counts[j] = 0
		}
	}
	return cols, vals
}

// pack lays rows built independently out back to back in one table.
func pack(rowCols [][]int32, rowVals [][]uint32) *Table {
	n := len(rowCols)
	ptr := make([]int64, n+1)
	for i, r := range rowCols {
		ptr[i+1] = ptr[i] + int64(len(r))
	}
	t := &Table{ptr: ptr, cols: make([]int32, ptr[n]), vals: make([]uint32, ptr[n])}
	for i := range rowCols {
		copy(t.cols[ptr[i]:], rowCols[i])
		copy(t.vals[ptr[i]:], rowVals[i])
	}
	return t
}
