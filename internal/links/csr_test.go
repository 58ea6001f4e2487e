package links

import (
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"rock/internal/datagen"
	"rock/internal/dataset"
	"rock/internal/sim"
)

// figure4Pairs is Figure 4 of the paper as written, kept as the oracle for
// the CSR kernel: every point adds one link to each unordered pair of its
// neighbors. Keys are (p, q) with p < q.
func figure4Pairs(nb *Neighbors) map[[2]int32]int {
	pairs := make(map[[2]int32]int)
	for _, l := range nb.Lists {
		for a := 0; a < len(l)-1; a++ {
			for b := a + 1; b < len(l); b++ {
				pairs[[2]int32{l[a], l[b]}]++
			}
		}
	}
	return pairs
}

// csrCorpus draws n random baskets and makes every fifth point isolated at
// any theta > 0 by giving it an item no other point holds.
func csrCorpus(rng *rand.Rand, n int) []dataset.Transaction {
	txns := randomTxns(rng, n, 40, 6)
	for i := 0; i < n; i += 5 {
		txns[i] = dataset.NewTransaction(dataset.Item(1000 + i))
	}
	return txns
}

// TestCSRMatchesFigure4 is the semantic gate of the link kernel: on random
// corpora, for every theta, size and worker count, the CSR table equals both
// the Figure 4 pair-count loop and the bitset matrix squaring on every
// (i, j), and every row is sorted, symmetric and free of self and zero
// entries.
func TestCSRMatchesFigure4(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, theta := range []float64{0, 0.2, 0.5, 0.8, 1} {
		for _, n := range []int{0, 1, 2, rng.Intn(601)} {
			txns := csrCorpus(rng, n)
			nb := ComputeNeighbors(n, sim.ByIndex(txns, sim.Jaccard), Config{Theta: theta})
			pairs := figure4Pairs(nb)
			mat := ComputeDenseMatrix(nb)
			for _, workers := range []int{1, 2, 3, 8} {
				tab := Compute(nb, workers)
				if tab.N() != n {
					t.Fatalf("theta=%v n=%d workers=%d: N() = %d", theta, n, workers, tab.N())
				}
				checkRows(t, tab)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						want := 0
						if i < j {
							want = pairs[[2]int32{int32(i), int32(j)}]
						} else if i > j {
							want = pairs[[2]int32{int32(j), int32(i)}]
						}
						if got := tab.Get(i, j); got != want || mat.Get(i, j) != want {
							t.Fatalf("theta=%v n=%d workers=%d: link(%d,%d) = %d, matrix %d, Figure 4 %d",
								theta, n, workers, i, j, got, mat.Get(i, j), want)
						}
					}
				}
				if tab.NonZeroPairs() != len(pairs) || mat.NonZeroPairs() != len(pairs) {
					t.Fatalf("theta=%v n=%d workers=%d: NonZeroPairs = %d, matrix %d, Figure 4 %d",
						theta, n, workers, tab.NonZeroPairs(), mat.NonZeroPairs(), len(pairs))
				}
			}
		}
	}
}

// checkRows asserts the CSR row invariants: strictly ascending columns, no
// self entry, no zero count, and link(i, j) stored as link(j, i).
func checkRows(t *testing.T, tab *Table) {
	t.Helper()
	for i := 0; i < tab.N(); i++ {
		cols, vals := tab.Row(i)
		for k, j := range cols {
			switch {
			case k > 0 && cols[k-1] >= j:
				t.Fatalf("row %d not strictly ascending: %v", i, cols)
			case int(j) == i:
				t.Fatalf("row %d holds a self entry", i)
			case vals[k] == 0:
				t.Fatalf("row %d holds a zero entry at %d", i, j)
			case tab.Get(int(j), i) != int(vals[k]):
				t.Fatalf("link(%d,%d) = %d but link(%d,%d) = %d", i, j, vals[k], j, i, tab.Get(int(j), i))
			}
		}
	}
}

// TestComputeParallelMatchesSequential checks the deprecated entry point:
// its dense limit is ignored, and every worker count yields the layout the
// single-worker kernel builds.
func TestComputeParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	txns := randomTxns(rng, 150, 40, 7)
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.3})
	want := Compute(nb, 1)
	for _, limit := range []int{-1, len(txns), DefaultDenseLimit} {
		for _, workers := range []int{0, 1, 2, 3, 8} {
			if got := ComputeParallel(nb, limit, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("ComputeParallel(limit %d, workers %d) differs from Compute(nb, 1)", limit, workers)
			}
		}
	}
}

// TestLinkKernelSpeedupGuard is the coarse CI regression guard: on about
// 1,900 market baskets the CSR kernel on one worker must be at least 4× the
// Figure 4 map loop. It only runs when ROCK_LINKS_GUARD=1 (the CI
// bench-smoke job sets it), so loaded developer machines don't see flaky
// timing failures in tier-1 runs.
func TestLinkKernelSpeedupGuard(t *testing.T) {
	if os.Getenv("ROCK_LINKS_GUARD") != "1" {
		t.Skip("set ROCK_LINKS_GUARD=1 to run the speedup guard")
	}
	d := datagen.Basket(datagen.ScaledBasketConfig(60), rand.New(rand.NewSource(1)))
	nb := ComputeNeighbors(len(d.Txns), sim.ByIndex(d.Txns, sim.Jaccard), Config{Theta: 0.5})
	var csr time.Duration
	for r := 0; r < 3; r++ {
		start := time.Now()
		Compute(nb, 1)
		if el := time.Since(start); r == 0 || el < csr {
			csr = el
		}
	}
	// One reference run: noise only slows it, which loosens the guard.
	start := time.Now()
	figure4Pairs(nb)
	ref := time.Since(start)
	t.Logf("%d points: CSR %v, Figure 4 map loop %v (%.1f×)", nb.N(), csr, ref, float64(ref)/float64(csr))
	if csr*4 > ref {
		t.Fatalf("CSR kernel %v is under 4× the Figure 4 map loop %v", csr, ref)
	}
}
