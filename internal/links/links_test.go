package links

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rock/internal/dataset"
	"rock/internal/sim"
)

// figure1Txns builds the paper's Figure 1 basket data: one cluster of all
// 3-subsets of {1..5}, a second of all 3-subsets of {1, 2, 6, 7}.
func figure1Txns() (txns []dataset.Transaction, firstCluster int) {
	items1 := []dataset.Item{1, 2, 3, 4, 5}
	items2 := []dataset.Item{1, 2, 6, 7}
	add := func(items []dataset.Item) {
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				for k := j + 1; k < len(items); k++ {
					txns = append(txns, dataset.NewTransaction(items[i], items[j], items[k]))
				}
			}
		}
	}
	add(items1)
	firstCluster = len(txns) // C(5,3) = 10
	add(items2)              // C(4,3) = 4
	return txns, firstCluster
}

func findTxn(t *testing.T, txns []dataset.Transaction, want ...dataset.Item) int {
	t.Helper()
	w := dataset.NewTransaction(want...)
	for i, tx := range txns {
		if tx.Equal(w) {
			return i
		}
	}
	t.Fatalf("transaction %v not found", w)
	return -1
}

// TestFigure1LinkCounts verifies the paper's worked example (Sections 1.2
// and 3.2): at theta = 0.5 under Jaccard, {1,2,6} has 5 links to {1,2,7}
// and only 3 links to {1,2,3}; {1,6,7} has 2 links to every transaction in
// the small cluster and 0 links to every other transaction in the big one.
func TestFigure1LinkCounts(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.5})
	table := Compute(nb, 1)

	t126 := findTxn(t, txns, 1, 2, 6)
	t127 := findTxn(t, txns, 1, 2, 7)
	t123 := findTxn(t, txns, 1, 2, 3)
	t167 := findTxn(t, txns, 1, 6, 7)
	t267 := findTxn(t, txns, 2, 6, 7)
	t134 := findTxn(t, txns, 1, 3, 4)
	t345 := findTxn(t, txns, 3, 4, 5)

	if got := table.Get(t126, t127); got != 5 {
		t.Errorf("link({1,2,6},{1,2,7}) = %d, want 5", got)
	}
	if got := table.Get(t126, t123); got != 3 {
		t.Errorf("link({1,2,6},{1,2,3}) = %d, want 3", got)
	}
	// "{1,6,7} has 2 links with every transaction in the smaller cluster"
	for _, j := range []int{t126, t127, t267} {
		if got := table.Get(t167, j); got != 2 {
			t.Errorf("link({1,6,7}, %v) = %d, want 2", txns[j], got)
		}
	}
	// "... and 0 links with every other transaction in the bigger cluster"
	// — i.e. the big-cluster transactions that do not contain both of the
	// shared items 1 and 2 (those containing both are bridged to {1,6,7}
	// through {1,2,6} and {1,2,7}).
	t145 := findTxn(t, txns, 1, 4, 5)
	for _, j := range []int{t134, t345, t145} {
		if got := table.Get(t167, j); got != 0 {
			t.Errorf("link({1,6,7}, %v) = %d, want 0", txns[j], got)
		}
	}
}

// TestFigure1PairExample12 checks Example 1.2's companion numbers: pairs in
// the same cluster containing {1,2} have 5 common neighbors, pairs across
// clusters containing {1,2} have 3.
func TestFigure1PairExample12(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.5})
	table := Compute(nb, 1)

	t123 := findTxn(t, txns, 1, 2, 3)
	t124 := findTxn(t, txns, 1, 2, 4)
	t126 := findTxn(t, txns, 1, 2, 6)
	if got := table.Get(t123, t124); got != 5 {
		t.Errorf("link({1,2,3},{1,2,4}) = %d, want 5", got)
	}
	if got := table.Get(t123, t126); got != 3 {
		t.Errorf("link({1,2,3},{1,2,6}) = %d, want 3", got)
	}
}

func TestNeighborListsExcludeSelfAndAreSorted(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.2})
	for i, l := range nb.Lists {
		if !sort.SliceIsSorted(l, func(a, b int) bool { return l[a] < l[b] }) {
			t.Fatalf("neighbor list %d not sorted: %v", i, l)
		}
		for _, j := range l {
			if int(j) == i {
				t.Fatalf("point %d is its own neighbor", i)
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	for i := range nb.Lists {
		for _, j := range nb.Lists[i] {
			if !nb.Contains(int(j), int32(i)) {
				t.Fatalf("neighbor relation not symmetric: %d in list of %d but not vice versa", i, j)
			}
		}
	}
}

func TestParallelNeighborsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	txns := randomTxns(rng, 120, 40, 8)
	s := sim.ByIndex(txns, sim.Jaccard)
	seq := ComputeNeighbors(len(txns), s, Config{Theta: 0.3, Workers: 1})
	par := ComputeNeighbors(len(txns), s, Config{Theta: 0.3, Workers: 4})
	if !reflect.DeepEqual(seq.Lists, par.Lists) {
		t.Fatal("parallel neighbor lists differ from sequential")
	}
}

func TestThetaOneOnlyIdenticalNeighbors(t *testing.T) {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2),
		dataset.NewTransaction(1, 2),
		dataset.NewTransaction(1, 3),
	}
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 1})
	if got := nb.Degree(0); got != 1 {
		t.Errorf("degree(0) = %d, want 1 (only the identical twin)", got)
	}
	if got := nb.Degree(2); got != 0 {
		t.Errorf("degree(2) = %d, want 0", got)
	}
}

func TestThetaZeroEveryPairNeighbors(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0})
	for i := range nb.Lists {
		if nb.Degree(i) != len(txns)-1 {
			t.Fatalf("degree(%d) = %d, want %d", i, nb.Degree(i), len(txns)-1)
		}
	}
}

// bruteForceLinks counts common neighbors directly from the lists.
func bruteForceLinks(nb *Neighbors, i, j int) int {
	set := make(map[int32]bool)
	for _, x := range nb.Lists[i] {
		set[x] = true
	}
	c := 0
	for _, x := range nb.Lists[j] {
		if set[x] {
			c++
		}
	}
	return c
}

func randomTxns(rng *rand.Rand, n, universe, avgSize int) []dataset.Transaction {
	txns := make([]dataset.Transaction, n)
	for i := range txns {
		size := 1 + rng.Intn(2*avgSize)
		items := make([]dataset.Item, size)
		for k := range items {
			items[k] = dataset.Item(rng.Intn(universe))
		}
		txns[i] = dataset.NewTransaction(items...)
	}
	return txns
}

// TestLinkTableImplementationsAgree cross-checks the CSR kernel against the
// bitset matrix squaring, the naive matrix squaring and the brute-force
// common-neighbor count.
func TestLinkTableImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		txns := randomTxns(rng, 80, 30, 6)
		theta := []float64{0.1, 0.3, 0.5, 0.7, 0.9}[trial]
		nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: theta})
		tables := map[string]*Table{
			"csr":    Compute(nb, 1),
			"matrix": ComputeDenseMatrix(nb),
			"naive":  ComputeNaiveMatrix(nb),
		}
		for i := 0; i < len(txns); i++ {
			for j := 0; j < len(txns); j++ {
				want := 0
				if i != j {
					want = bruteForceLinks(nb, i, j)
				}
				for name, tab := range tables {
					if got := tab.Get(i, j); got != want {
						t.Fatalf("theta=%v %s.Get(%d,%d) = %d, want %d", theta, name, i, j, got, want)
					}
				}
			}
		}
		for name, tab := range tables {
			if tab.NonZeroPairs() != tables["csr"].NonZeroPairs() {
				t.Fatalf("NonZeroPairs disagree: %s %d vs csr %d", name, tab.NonZeroPairs(), tables["csr"].NonZeroPairs())
			}
		}
	}
}

func TestSubsetRemapsNeighbors(t *testing.T) {
	txns, _ := figure1Txns()
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.5})
	keep := []int{0, 2, 4, 6, 8, 10, 12}
	sub := nb.Subset(keep)
	if sub.N() != len(keep) {
		t.Fatalf("subset size %d, want %d", sub.N(), len(keep))
	}
	for newI, oldI := range keep {
		for _, newJ := range sub.Lists[newI] {
			oldJ := keep[newJ]
			if !nb.Contains(oldI, int32(oldJ)) {
				t.Fatalf("subset invented neighbor %d-%d", oldI, oldJ)
			}
		}
		// Count neighbors of oldI that are inside keep.
		want := 0
		for _, j := range nb.Lists[oldI] {
			for _, k := range keep {
				if int(j) == k {
					want++
				}
			}
		}
		if got := len(sub.Lists[newI]); got != want {
			t.Fatalf("subset degree(%d) = %d, want %d", newI, got, want)
		}
	}
}

func TestFilterMinDegree(t *testing.T) {
	txns := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),
		dataset.NewTransaction(1, 2, 4),
		dataset.NewTransaction(9, 10), // isolated
	}
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.4})
	keep, out := nb.FilterMinDegree(1)
	if !reflect.DeepEqual(keep, []int{0, 1}) || !reflect.DeepEqual(out, []int{2}) {
		t.Fatalf("FilterMinDegree = %v, %v", keep, out)
	}
}

// TestPath3MatchesBruteForce checks the ablation's length-3 path counter on
// small random graphs.
func TestPath3MatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	txns := randomTxns(rng, 30, 15, 4)
	nb := ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), Config{Theta: 0.3})
	got := ComputePath3(nb)
	n := nb.N()
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
		for _, j := range nb.Lists[i] {
			adj[i][j] = true
		}
	}
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			want := 0
			for x := 0; x < n; x++ {
				if !adj[p][x] || x == q {
					continue
				}
				for y := 0; y < n; y++ {
					if y == p || y == x || x == q {
						continue
					}
					if adj[x][y] && adj[y][q] && y != q {
						want++
					}
				}
			}
			if got.Get(p, q) != want {
				t.Fatalf("path3(%d,%d) = %d, want %d", p, q, got.Get(p, q), want)
			}
		}
	}
}
