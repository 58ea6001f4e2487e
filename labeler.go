package rock

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"rock/internal/label"
	"rock/internal/model"
	"rock/internal/rockcore"
	"rock/internal/sim"
)

// Labeler assigns new, unseen transactions to the clusters of a previous
// clustering run using the paper's labeling rule (Section 4.6): a point
// goes to the cluster in whose labeled subset L_i it has the most
// theta-neighbors after dividing by the expected count (|L_i|+1)^f(theta).
//
// Typical use: cluster a sample once, keep the Labeler, and classify
// arriving transactions incrementally. A Labeler wraps the same compiled
// model.Assigner the serving, training and streaming layers use, so it is
// read-only after construction and concurrent Assign calls are safe. For
// serving across process boundaries, Snapshot persists the model and
// LoadLabeler (or the rockd daemon) revives it.
type Labeler struct {
	a      *model.Assigner
	schema *Schema
}

// Snapshot is the persisted form of a Labeler: the labeled sets, their
// norms, the labeled transactions, and the model's parameters. See
// Labeler.Snapshot and LoadLabeler.
type Snapshot = model.Snapshot

// LabelerConfig controls labeled-set construction for a Labeler.
type LabelerConfig struct {
	// Fraction of each cluster drawn into its labeled set (default 0.25).
	// Must lie in [0, 1]; zero selects the default.
	Fraction float64
	// MinPerCluster floors each labeled set's size (default 5). Must be
	// non-negative; zero selects the default.
	MinPerCluster int
	// Seed drives the labeled-set draw.
	Seed int64
}

// validate rejects the settings every Labeler constructor refuses.
func (lc LabelerConfig) validate() error {
	if lc.Fraction < 0 || lc.Fraction > 1 {
		return fmt.Errorf("rock: labeler fraction %v out of [0,1]", lc.Fraction)
	}
	if lc.MinPerCluster < 0 {
		return fmt.Errorf("rock: negative MinPerCluster %d", lc.MinPerCluster)
	}
	return nil
}

// NewLabeler builds a Labeler from the transactions that were clustered and
// the clustering result. cfg must be the Config the clustering ran with (its
// Theta, F and Similarity are reused for the neighbor tests).
func NewLabeler(txns []Transaction, res *Result, cfg Config, lcfg LabelerConfig) (*Labeler, error) {
	if res == nil {
		return nil, errors.New("rock: nil result")
	}
	return trainLabeler(txns, res.Clusters, cfg, lcfg, rand.New(rand.NewSource(lcfg.Seed)))
}

// trainLabeler is the constructor behind NewLabeler and the pipelines. It
// draws each cluster's labeled set with rng (clusters index txns), keeps
// only the transactions some set references, and compiles the result. The
// pipelines pass their own rng, so the draw continues their sampling stream.
func trainLabeler(txns []Transaction, clusters [][]int, cfg Config, lcfg LabelerConfig, rng *rand.Rand) (*Labeler, error) {
	if err := lcfg.validate(); err != nil {
		return nil, err
	}
	lc := label.Config{Fraction: 0.25, MinPerCluster: 5}
	if lcfg.Fraction > 0 {
		lc.Fraction = lcfg.Fraction
	}
	if lcfg.MinPerCluster > 0 {
		lc.MinPerCluster = lcfg.MinPerCluster
	}
	f := cfg.F
	if f == nil {
		f = rockcore.DefaultF
	}
	lc.F = f(cfg.Theta)
	sets, err := label.BuildSets(clusters, lc, rng)
	if err != nil {
		return nil, err
	}

	// Keep the referenced transactions in index order and remap the sets'
	// points onto them, so a labeler trained on a large run stays small.
	used := make([]bool, len(txns))
	for _, s := range sets {
		for _, p := range s.Points {
			if p < 0 || p >= len(txns) {
				return nil, fmt.Errorf("rock: labeled point %d outside transaction slice of %d", p, len(txns))
			}
			used[p] = true
		}
	}
	remap := make([]int, len(txns))
	simF := cfg.txnSim()
	snap := &Snapshot{Theta: cfg.Theta, FTheta: lc.F, SimName: sim.NameOf(simF)}
	for p, u := range used {
		if u {
			remap[p] = len(snap.Txns)
			snap.Txns = append(snap.Txns, txns[p])
		}
	}
	for _, s := range sets {
		pts := make([]int, len(s.Points))
		for i, p := range s.Points {
			pts[i] = remap[p]
		}
		sort.Ints(pts)
		snap.Sets = append(snap.Sets, model.Set{Cluster: s.Cluster, Norm: s.Norm(), Points: pts})
	}
	a, err := model.CompileWith(snap, simF)
	if err != nil {
		return nil, err
	}
	return &Labeler{a: a}, nil
}

// Assign labels one transaction, returning a cluster index into the
// original Result.Clusters or OutlierCluster when the transaction has no
// neighbors in any labeled set. Assign is safe for concurrent use.
func (l *Labeler) Assign(t Transaction) int {
	c, _ := l.a.Assign(t)
	return c
}

// AssignScore is Assign plus the winning cluster's normalized neighbor
// count — the confidence score the serving layer reports. The score is 0
// for outliers.
func (l *Labeler) AssignScore(t Transaction) (int, float64) { return l.a.Assign(t) }

// AssignAll labels a batch of transactions.
func (l *Labeler) AssignAll(ts []Transaction) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = l.Assign(t)
	}
	return out
}

// SetSchema attaches the categorical schema the training records were
// encoded with. Snapshots carry the schema onward, letting a serving
// process (rockd) accept raw records and encode them identically.
func (l *Labeler) SetSchema(s *Schema) { l.schema = s }

// Schema returns the attached categorical schema, or nil.
func (l *Labeler) Schema() *Schema { return l.schema }

// Snapshot captures the Labeler as a persistable model. It holds only the
// transactions referenced by some labeled set (indices are remapped), so a
// snapshot of a large training run stays small. The similarity must be one
// of the named ones (Jaccard, Dice, Overlap, Cosine); a custom similarity
// function cannot be serialized. The snapshot shares its sets and
// transactions with the Labeler, so treat it as read-only.
func (l *Labeler) Snapshot() (*Snapshot, error) {
	snap := *l.a.Snapshot()
	if snap.SimName == "" {
		return nil, errors.New("rock: custom similarity functions cannot be snapshotted; use a named similarity")
	}
	snap.Schema = l.schema
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return &snap, nil
}

// WriteSnapshot writes the Labeler's snapshot to w in the versioned binary
// snapshot format.
func (l *Labeler) WriteSnapshot(w io.Writer) error {
	s, err := l.Snapshot()
	if err != nil {
		return err
	}
	return s.Write(w)
}

// SaveSnapshot writes the Labeler's snapshot to path (atomically, via a
// temporary file and rename).
func (l *Labeler) SaveSnapshot(path string) error {
	s, err := l.Snapshot()
	if err != nil {
		return err
	}
	return model.Save(path, s)
}

// LoadLabeler revives a Labeler from a snapshot stream written by
// WriteSnapshot/SaveSnapshot. The revived Labeler assigns identically to
// the one that was snapshotted.
func LoadLabeler(r io.Reader) (*Labeler, error) {
	snap, err := model.Read(r)
	if err != nil {
		return nil, err
	}
	return compileLabeler(snap)
}

// LoadLabelerFile revives a Labeler from a snapshot file.
func LoadLabelerFile(path string) (*Labeler, error) {
	snap, err := model.Load(path)
	if err != nil {
		return nil, err
	}
	return compileLabeler(snap)
}

func compileLabeler(snap *Snapshot) (*Labeler, error) {
	a, err := model.Compile(snap)
	if err != nil {
		return nil, err
	}
	return &Labeler{a: a, schema: snap.Schema}, nil
}
