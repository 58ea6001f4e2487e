package rock

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"

	"rock/internal/sample"
	"rock/internal/store"
)

// OutlierCluster is the cluster index assigned to points that end up in no
// cluster: sample outliers and unlabeled disk points.
const OutlierCluster = -1

// PipelineConfig controls the full sample→cluster→label pipeline of the
// paper's Figure 2.
type PipelineConfig struct {
	// Cluster configures the in-memory clustering of the sample.
	Cluster Config
	// SampleSize is the number of points drawn by reservoir sampling.
	SampleSize int
	// LabelFraction is the fraction of each discovered cluster used as its
	// labeled set L_i (Section 4.6). Must lie in [0, 1]; zero selects 0.25.
	LabelFraction float64
	// MinLabelPerCluster floors each labeled set's size. Must be
	// non-negative; zero selects 5.
	MinLabelPerCluster int
	// Seed drives sampling and labeled-set draws.
	Seed int64
}

func (p PipelineConfig) labelerConfig() LabelerConfig {
	return LabelerConfig{Fraction: p.LabelFraction, MinPerCluster: p.MinLabelPerCluster}
}

// validate rejects what the pipeline would otherwise find out only after
// sampling and clustering.
func (p PipelineConfig) validate() error {
	if p.SampleSize <= 0 {
		return errors.New("rock: SampleSize must be positive")
	}
	return p.labelerConfig().validate()
}

// LargeResult is the outcome of the pipeline.
type LargeResult struct {
	// Sample holds the indices (into the original data) of the sampled
	// points, and SampleResult their clustering.
	Sample       []int
	SampleResult *Result
	// Assign maps every original point to a cluster index in
	// [0, len(SampleResult.Clusters)) or OutlierCluster.
	Assign []int
	// Labeled counts points assigned during the labeling pass (i.e. not in
	// the sample).
	Labeled int
	// Labeler is the trained labeling model the pipeline assigned with. It
	// keeps classifying transactions that arrive after the run, and its
	// Snapshot/SaveSnapshot persist the model for serving (cmd/rockd).
	Labeler *Labeler
}

// Clusters materializes the full clustering from the assignment vector.
func (r *LargeResult) Clusters() [][]int {
	out := make([][]int, len(r.SampleResult.Clusters))
	for p, c := range r.Assign {
		if c >= 0 {
			out[c] = append(out[c], p)
		}
	}
	return out
}

// ClusterLarge runs the paper's pipeline over an in-memory transaction
// slice: reservoir-sample SampleSize transactions, cluster them, then label
// every other transaction by normalized neighbor counts in the clusters'
// labeled sets.
//
// The sample clustering goes through ClusterTransactions and therefore uses
// the inverted-index neighbor join when the configured similarity and theta
// admit it — which is what makes large SampleSize values practical: the
// neighbor phase, the pipeline's dominant cost, stops being quadratic in
// the sample.
func ClusterLarge(txns []Transaction, cfg PipelineConfig) (*LargeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := sample.Indices(len(txns), cfg.SampleSize, rng)

	sub := make([]Transaction, len(idx))
	for i, p := range idx {
		sub[i] = txns[p]
	}
	out, sampled, err := clusterSample(len(txns), idx, sub, cfg, rng)
	if err != nil {
		return nil, err
	}
	// Label the remaining points; assignments are independent, so the
	// work stripes across workers.
	var todo []int
	for p := range txns {
		if !sampled[p] {
			todo = append(todo, p)
		}
	}
	labelParallel(todo, cfg.Cluster.Workers, func(p int) {
		out.Assign[p] = out.Labeler.Assign(txns[p])
	})
	out.Labeled = len(todo)
	return out, nil
}

// clusterSample is the step both pipelines share once the sample is drawn
// (idx: its positions among total points, sub: its transactions). It
// clusters the sample, trains the Labeler on it (continuing rng's stream),
// and starts the assignment vector: sampled points keep their sample
// cluster or OutlierCluster, every other point is OutlierCluster until the
// caller labels it. sampled marks the sampled positions.
func clusterSample(total int, idx []int, sub []Transaction, cfg PipelineConfig, rng *rand.Rand) (out *LargeResult, sampled []bool, err error) {
	res, err := ClusterTransactions(sub, cfg.Cluster)
	if err != nil {
		return nil, nil, err
	}
	lab, err := trainLabeler(sub, res.Clusters, cfg.Cluster, cfg.labelerConfig(), rng)
	if err != nil {
		return nil, nil, err
	}
	out = &LargeResult{Sample: idx, SampleResult: res, Labeler: lab, Assign: make([]int, total)}
	for i := range out.Assign {
		out.Assign[i] = OutlierCluster
	}
	for c, members := range res.Clusters {
		for _, m := range members {
			out.Assign[idx[m]] = c
		}
	}
	sampled = make([]bool, total)
	for _, p := range idx {
		sampled[p] = true
	}
	return out, sampled, nil
}

// labelParallel runs fn over every index, striped across workers.
func labelParallel(todo []int, workers int, fn func(p int)) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || len(todo) < 2*workers {
		for _, p := range todo {
			fn(p)
		}
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(todo); i += workers {
				fn(todo[i])
			}
		}(g)
	}
	wg.Wait()
}

// ClusterScanner runs the pipeline over disk-resident data in two streaming
// passes: pass one reservoir-samples the stream, pass two labels every
// non-sampled transaction. open must return a fresh scanner over the same
// data each time it is called.
func ClusterScanner(open func() (store.Scanner, io.Closer, error), cfg PipelineConfig) (*LargeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pass 1: reservoir-sample the stream, keeping the sampled
	// transactions in memory.
	sc, closer, err := open()
	if err != nil {
		return nil, err
	}
	type keptTxn struct {
		pos int
		txn Transaction
	}
	res1 := sample.NewReservoir(cfg.SampleSize, rng)
	var kept []keptTxn
	// trim drops transactions evicted from the reservoir, bounding memory
	// at O(SampleSize).
	trim := func() {
		want := make(map[int]bool, cfg.SampleSize)
		for _, p := range res1.Sample() {
			want[p] = true
		}
		live := kept[:0]
		for _, s := range kept {
			if want[s.pos] {
				live = append(live, s)
			}
		}
		kept = live
	}
	total := 0
	for {
		t, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			closer.Close()
			return nil, err
		}
		res1.Add(total)
		total++
		kept = append(kept, keptTxn{pos: total - 1, txn: t})
		if len(kept) >= 2*cfg.SampleSize {
			trim()
		}
	}
	if err := closer.Close(); err != nil {
		return nil, err
	}
	trim()

	idx := make([]int, len(kept))
	sub := make([]Transaction, len(kept))
	for i, s := range kept {
		idx[i] = s.pos
		sub[i] = s.txn
	}

	out, sampled, err := clusterSample(total, idx, sub, cfg, rng)
	if err != nil {
		return nil, err
	}

	// Pass 2: label the rest of the stream.
	sc, closer, err = open()
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	pos := 0
	for {
		t, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if pos >= total {
			return nil, fmt.Errorf("rock: stream grew between passes (%d > %d)", pos+1, total)
		}
		if !sampled[pos] {
			out.Assign[pos] = out.Labeler.Assign(t)
			out.Labeled++
		}
		pos++
	}
	// A stream that shrank would otherwise leave the tail silently marked
	// as outliers — data quietly dropped, the opposite of what the paper's
	// robustness is about. Fail as loudly as the grow case above.
	if pos < total {
		return nil, fmt.Errorf("rock: stream shrank between passes (%d < %d)", pos, total)
	}
	return out, nil
}
