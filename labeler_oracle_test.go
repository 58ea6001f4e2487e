package rock

import (
	"bytes"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"rock/internal/datagen"
	"rock/internal/label"
	"rock/internal/store"
)

// maxOverlap is |a ∩ b| / max(|a|, |b|): symmetric and in [0, 1], but not
// one of the count-based measures the compiled assigner indexes, so a
// Labeler built on it answers through the assigner's scan fallback.
func maxOverlap(a, b Transaction) float64 {
	m := len(a)
	if len(b) > m {
		m = len(b)
	}
	if m == 0 {
		return 0
	}
	return float64(a.IntersectLen(b)) / float64(m)
}

// scanOracle is Section 4.6 as written: label.AssignScore over the
// Labeler's labeled sets, one similarity call per labeled transaction.
func scanOracle(lab *Labeler, f TxnSimilarity) func(Transaction) (int, float64) {
	snap := lab.a.Snapshot()
	sets := make([]label.Set, len(snap.Sets))
	for i, s := range snap.Sets {
		sets[i] = label.NewSet(s.Cluster, s.Points, s.Norm)
	}
	theta := snap.Theta
	return func(t Transaction) (int, float64) {
		return label.AssignScore(sets, func(q int) bool { return f(t, snap.Txns[q]) >= theta })
	}
}

// checkAgainstOracle checks every labeled point of lr, and the Labeler's
// (cluster, score) on every transaction, against the scan oracle.
func checkAgainstOracle(t *testing.T, what string, lr *LargeResult, txns []Transaction, oracle func(Transaction) (int, float64)) {
	t.Helper()
	sampled := make(map[int]bool, len(lr.Sample))
	for _, p := range lr.Sample {
		sampled[p] = true
	}
	for p, txn := range txns {
		wantC, wantS := oracle(txn)
		if gotC, gotS := lr.Labeler.AssignScore(txn); gotC != wantC || gotS != wantS {
			t.Fatalf("%s: Labeler on txn %d: (%d, %v), scan oracle (%d, %v)", what, p, gotC, gotS, wantC, wantS)
		}
		if !sampled[p] && lr.Assign[p] != wantC {
			t.Fatalf("%s: Assign[%d] = %d, scan oracle %d", what, p, lr.Assign[p], wantC)
		}
	}
	if lr.Labeled != len(txns)-len(lr.Sample) {
		t.Fatalf("%s: labeled %d of %d non-sampled points", what, lr.Labeled, len(txns)-len(lr.Sample))
	}
}

// TestPipelineAssignMatchesScanOracle is the differential oracle for the
// library's labeling path: for random seeds and every built-in set measure
// plus a custom one, the assignments of ClusterLarge and ClusterScanner —
// and of a Labeler revived from the snapshot — equal the reference scan
// over the Labeler's labeled sets, bit for bit.
func TestPipelineAssignMatchesScanOracle(t *testing.T) {
	data := datagen.Basket(datagen.ScaledBasketConfig(100), rand.New(rand.NewSource(3)))
	path := filepath.Join(t.TempDir(), "txns.bin")
	if err := store.SaveBinary(path, data.Txns); err != nil {
		t.Fatal(err)
	}
	open := func() (store.Scanner, io.Closer, error) { return store.OpenBinary(path) }

	sims := []struct {
		name string
		f    TxnSimilarity
	}{
		{"jaccard", Jaccard}, {"dice", Dice}, {"overlap", Overlap}, {"cosine", Cosine}, {"custom", maxOverlap},
	}
	seeds := rand.New(rand.NewSource(12))
	for _, s := range sims {
		for rep := 0; rep < 2; rep++ {
			cfg := PipelineConfig{
				Cluster: Config{
					K: 10, Theta: 0.5, Similarity: s.f,
					MinNeighbors: 2, StopMultiple: 3, MinClusterSize: 3,
				},
				SampleSize: 250,
				Seed:       seeds.Int63(),
			}
			custom := s.name == "custom"
			inMem, err := ClusterLarge(data.Txns, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: ClusterLarge: %v", s.name, cfg.Seed, err)
			}
			if got := inMem.Labeler.a.Compiled(); got == custom {
				t.Fatalf("%s: compiled posting-list path active = %v", s.name, got)
			}
			checkAgainstOracle(t, s.name+" ClusterLarge", inMem, data.Txns, scanOracle(inMem.Labeler, s.f))

			fromDisk, err := ClusterScanner(open, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: ClusterScanner: %v", s.name, cfg.Seed, err)
			}
			checkAgainstOracle(t, s.name+" ClusterScanner", fromDisk, data.Txns, scanOracle(fromDisk.Labeler, s.f))

			if custom {
				continue
			}
			var buf bytes.Buffer
			if err := inMem.Labeler.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := LoadLabeler(&buf)
			if err != nil {
				t.Fatal(err)
			}
			oracle := scanOracle(inMem.Labeler, s.f)
			for p, txn := range data.Txns {
				wantC, wantS := oracle(txn)
				if gotC, gotS := back.AssignScore(txn); gotC != wantC || gotS != wantS {
					t.Fatalf("%s: revived Labeler on txn %d: (%d, %v), scan oracle (%d, %v)", s.name, p, gotC, gotS, wantC, wantS)
				}
			}
		}
	}
}
