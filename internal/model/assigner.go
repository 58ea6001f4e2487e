package model

import (
	"fmt"
	"sort"
	"strings"

	"rock/internal/dataset"
	"rock/internal/label"
	"rock/internal/sim"
)

// Assigner is a snapshot compiled for serving: the labeled sets rebuilt with
// their stored norms, the resolved similarity, and (when the model
// was trained on categorical records) an encoder for incoming records. An
// Assigner is immutable after Compile and safe for concurrent use — the
// serving layer (internal/serve) relies on that to share one Assigner across
// its whole worker pool and to hot-swap models with an atomic pointer.
type Assigner struct {
	snap    *Snapshot
	sets    []label.Set
	sim     sim.TxnFunc
	theta   float64
	encoder *dataset.Encoder
	// idx is the posting-list index for the built-in count-based measures;
	// nil when the model's similarity (or its transactions) cannot use it,
	// in which case every Assign takes the scan path.
	idx *compiled
}

// Compile turns a snapshot into a servable Assigner, resolving the
// similarity name against the registered similarities and building the
// posting-list index for the built-in set measures.
func Compile(s *Snapshot) (*Assigner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	f, err := s.similarity()
	if err != nil {
		return nil, err
	}
	return newAssigner(s, f)
}

// CompileWith is Compile with the similarity already resolved: f is the
// model's neighbor measure, and s.SimName names it (selecting the
// posting-list kind) or is empty for a custom function. A custom measure is
// not a count-based one, so every Assign takes the scan path, and its
// snapshot cannot be written. The caller vouches that a non-empty SimName
// names f; rock.Labeler uses this to serve any Config.Similarity through
// the one assigner.
func CompileWith(s *Snapshot, f sim.TxnFunc) (*Assigner, error) {
	if f == nil {
		return nil, fmt.Errorf("model: nil similarity function")
	}
	if err := s.validate(false); err != nil {
		return nil, err
	}
	return newAssigner(s, f)
}

// similarity resolves the snapshot's similarity name.
func (s *Snapshot) similarity() (sim.TxnFunc, error) {
	if s.SimName == sim.WeightedJaccardName {
		// Parameterized measure: the weight table lives in the snapshot's
		// schema, one weight per (attribute, value), laid out in encoder item
		// order (dataset.NewEncoder assigns ids per attribute block, in
		// domain order). Absent from TxnByName by design.
		if s.Schema == nil {
			return nil, fmt.Errorf("model: similarity %q needs a schema carrying attribute weights", s.SimName)
		}
		var w sim.ItemWeights
		for _, attr := range s.Schema.Attrs {
			if attr.Weights != nil {
				w = append(w, attr.Weights...)
				continue
			}
			for range attr.Domain {
				w = append(w, 1)
			}
		}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		return sim.WeightedJaccard(w), nil
	}
	f, ok := sim.TxnByName(s.SimName)
	if !ok {
		names := sim.TxnNames()
		sort.Strings(names)
		return nil, fmt.Errorf("model: unknown similarity %q (have %s)", s.SimName, strings.Join(names, ", "))
	}
	return f, nil
}

// newAssigner builds the Assigner for a validated snapshot and its resolved
// similarity.
//
// It requires the snapshot's sets to be sorted by cluster index. The
// labeling rule keeps the first best-scoring set on ties (label.AssignScore),
// so the documented tie break — toward the lower cluster index — holds only
// when iteration order follows cluster order. Every snapshot builder in this
// repo emits cluster-sorted sets; refusing unsorted ones here keeps the
// compiled and scan paths from ever diverging on ties.
func newAssigner(s *Snapshot, f sim.TxnFunc) (*Assigner, error) {
	for i := 1; i < len(s.Sets); i++ {
		if s.Sets[i].Cluster < s.Sets[i-1].Cluster {
			return nil, fmt.Errorf("model: sets not sorted by cluster (set %d labels cluster %d after %d); tie breaks would depend on set order",
				i, s.Sets[i].Cluster, s.Sets[i-1].Cluster)
		}
	}
	a := &Assigner{snap: s, sim: f, theta: s.Theta}
	a.sets = make([]label.Set, len(s.Sets))
	for i, set := range s.Sets {
		a.sets[i] = label.NewSet(set.Cluster, set.Points, set.Norm)
	}
	if s.Schema != nil {
		a.encoder = dataset.NewEncoder(s.Schema)
	}
	a.idx = newCompiled(s)
	return a, nil
}

// Assign labels one transaction, returning the cluster index and the
// normalized neighbor-count score (label.Outlier and 0 for outliers). When
// the model compiled a posting-list index and t is normalized, the answer
// comes from posting-list intersection; otherwise from the reference scan.
// Both paths return bit-identical (cluster, score).
func (a *Assigner) Assign(t dataset.Transaction) (int, float64) {
	if a.idx != nil && t.IsNormalized() {
		return a.idx.assign(a.sets, t)
	}
	return a.AssignScan(t)
}

// AssignScan is the reference labeling path: a merge-intersect similarity
// call against every labeled transaction of every set, exactly Section 4.6
// as written. It is the fallback for custom similarities and the oracle the
// compiled path is property-tested against.
func (a *Assigner) AssignScan(t dataset.Transaction) (int, float64) {
	return label.AssignScore(a.sets, func(q int) bool {
		return a.sim(t, a.snap.Txns[q]) >= a.theta
	})
}

// Compiled reports whether the posting-list index is active for this model.
func (a *Assigner) Compiled() bool { return a.idx != nil }

// EncodeRecord converts a categorical record (one value string per
// attribute, "?" for missing) into a transaction using the model's schema.
func (a *Assigner) EncodeRecord(values []string) (dataset.Transaction, error) {
	if a.encoder == nil {
		return nil, fmt.Errorf("model: snapshot carries no schema; send transactions instead of records")
	}
	schema := a.snap.Schema
	if len(values) != len(schema.Attrs) {
		return nil, fmt.Errorf("model: record has %d values, schema has %d attributes", len(values), len(schema.Attrs))
	}
	rec := dataset.NewRecord(len(values))
	for i, v := range values {
		if v == "?" {
			continue
		}
		ix := schema.ValueIndex(i, v)
		if ix == dataset.Missing {
			return nil, fmt.Errorf("model: value %q not in domain of attribute %q", v, schema.Attrs[i].Name)
		}
		rec[i] = ix
	}
	return a.encoder.Encode(rec), nil
}

// Snapshot returns the snapshot the assigner was compiled from.
func (a *Assigner) Snapshot() *Snapshot { return a.snap }

// Schema returns the model's schema, or nil for transaction models.
func (a *Assigner) Schema() *dataset.Schema { return a.snap.Schema }

// Clusters returns the number of clusters the model labels for.
func (a *Assigner) Clusters() int { return a.snap.Clusters() }

// Theta returns the model's neighbor threshold.
func (a *Assigner) Theta() float64 { return a.theta }

// SimName returns the model's similarity name.
func (a *Assigner) SimName() string { return a.snap.SimName }
