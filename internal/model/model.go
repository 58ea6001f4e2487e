// Package model defines the persisted form of a trained assignment model:
// everything the labeling rule of Section 4.6 of the ROCK paper needs to
// classify a new point, detached from the training process. A snapshot holds
// theta, f(theta), the similarity (by name), the optional categorical schema,
// the labeled sets L_i with their (|L_i|+1)^f(theta) norms, and the labeled
// transactions themselves. Snapshots are written as a self-describing,
// versioned, gzip-compressed binary blob so a serving process (cmd/rockd)
// can load and hot-swap them long after — and far away from — training.
package model

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"rock/internal/dataset"
	"rock/internal/store"
)

// magic identifies a snapshot file; the byte after it is the format version.
var magic = [7]byte{'R', 'O', 'C', 'K', 'M', 'D', 'L'}

// Version is the current snapshot format version. Readers reject snapshots
// with a newer version; the magic+version header exists exactly so future
// formats can evolve without breaking old daemons loudly or new daemons
// silently.
//
// Version 2 appends a little-endian CRC32 (IEEE) of the compressed body as
// a 4-byte trailer, so silent corruption — a flipped bit on disk, a torn
// copy — is detected at load time instead of surfacing as a subtly wrong
// model. Version-1 snapshots (no trailer) still load.
//
// Version 3 adds an optional training-statistics block (point/outlier counts
// and the outlier rate of the producing run) between the schema block and
// the labeled sets, so the serving side can report what a generation looked
// like at training time. Version-1 and -2 snapshots still load, with nil
// Stats.
//
// Version 4 adds an optional per-value weight block to each schema
// attribute, carrying the attribute-value weights a weighted similarity
// (sim.WeightedJaccard, SimName "wjaccard") is compiled from. Snapshots of
// versions 1-3 still load, with nil Weights on every attribute.
const Version = 4

// crcTrailerLen is the length of the version-2 CRC32 trailer.
const crcTrailerLen = 4

// Set is one labeled subset L_i in persisted form.
type Set struct {
	// Cluster is the cluster index this set labels for.
	Cluster int
	// Norm is the stored normalization constant (|L_i|+1)^f(theta). It is
	// persisted rather than re-derived so a snapshot reproduces its
	// Labeler's scores bit-for-bit.
	Norm float64
	// Points are sorted, duplicate-free indices into Txns.
	Points []int
}

// TrainStats summarizes the run that produced a snapshot, persisted with it
// so operators can see from the serving side what a freshly published
// generation looked like. For the batch trainer, Points counts the labeling
// pass's input and Outliers how many of those the model left unassigned; for
// the streaming clusterer, Points counts arrivals absorbed or pooled since
// startup and OutlierRate is the rolling-window rate at publish time.
type TrainStats struct {
	// Points is the number of input points the producing run considered.
	Points int64
	// Outliers is how many of them ended up in no cluster.
	Outliers int64
	// OutlierRate is the producer's outlier rate at snapshot time, in [0,1].
	// It is persisted rather than derived because the streaming producer's
	// rate is windowed, not lifetime.
	OutlierRate float64
}

// Snapshot is a trained assignment model in serializable form.
type Snapshot struct {
	// Theta is the neighbor similarity threshold the model was trained with.
	Theta float64
	// FTheta is the evaluated f(theta) exponent.
	FTheta float64
	// SimName names the transaction similarity ("jaccard", "dice",
	// "overlap", "cosine").
	SimName string
	// Schema, when non-nil, is the categorical schema of the training data,
	// letting a server encode incoming records the same way training did.
	Schema *dataset.Schema
	// Sets are the labeled subsets, one per surviving cluster.
	Sets []Set
	// Txns are the labeled transactions the sets index into. Only the
	// transactions referenced by some set are stored.
	Txns []dataset.Transaction
	// Stats, when non-nil, describes the training run that produced this
	// snapshot. Nil for snapshots written before format version 3.
	Stats *TrainStats
}

// Validate checks the structural invariants every snapshot must satisfy —
// both freshly built ones before writing and decoded ones after reading.
func (s *Snapshot) Validate() error { return s.validate(true) }

// validate is Validate with the similarity-name check optional: CompileWith
// serves in-process models whose measure is a custom function, which has no
// name.
func (s *Snapshot) validate(named bool) error {
	if math.IsNaN(s.Theta) || s.Theta < 0 || s.Theta > 1 {
		return fmt.Errorf("model: theta %v out of [0,1]", s.Theta)
	}
	if math.IsNaN(s.FTheta) || math.IsInf(s.FTheta, 0) || s.FTheta < 0 {
		return fmt.Errorf("model: f(theta) %v not a finite non-negative number", s.FTheta)
	}
	if named && s.SimName == "" {
		return fmt.Errorf("model: empty similarity name")
	}
	if s.Schema != nil {
		for a, attr := range s.Schema.Attrs {
			if attr.Name == "" {
				return fmt.Errorf("model: schema attribute %d has no name", a)
			}
			if len(attr.Domain) == 0 {
				return fmt.Errorf("model: schema attribute %q has an empty domain", attr.Name)
			}
			if attr.Weights != nil {
				if len(attr.Weights) != len(attr.Domain) {
					return fmt.Errorf("model: schema attribute %q has %d weights for %d domain values",
						attr.Name, len(attr.Weights), len(attr.Domain))
				}
				for _, w := range attr.Weights {
					if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
						return fmt.Errorf("model: schema attribute %q has weight %v, want positive finite", attr.Name, w)
					}
				}
			}
		}
	}
	if st := s.Stats; st != nil {
		if st.Points < 0 || st.Outliers < 0 || st.Outliers > st.Points {
			return fmt.Errorf("model: stats %d outliers of %d points", st.Outliers, st.Points)
		}
		if math.IsNaN(st.OutlierRate) || st.OutlierRate < 0 || st.OutlierRate > 1 {
			return fmt.Errorf("model: stats outlier rate %v out of [0,1]", st.OutlierRate)
		}
	}
	for i, set := range s.Sets {
		if set.Cluster < 0 {
			return fmt.Errorf("model: set %d has negative cluster %d", i, set.Cluster)
		}
		if set.Norm <= 0 || math.IsNaN(set.Norm) || math.IsInf(set.Norm, 0) {
			return fmt.Errorf("model: set %d has invalid norm %v", i, set.Norm)
		}
		if len(set.Points) == 0 {
			return fmt.Errorf("model: set %d is empty", i)
		}
		prev := -1
		for _, p := range set.Points {
			if p <= prev {
				return fmt.Errorf("model: set %d points not strictly increasing", i)
			}
			if p >= len(s.Txns) {
				return fmt.Errorf("model: set %d references transaction %d of %d", i, p, len(s.Txns))
			}
			prev = p
		}
	}
	return nil
}

// Clusters returns the number of clusters the model labels for (one past the
// highest cluster index).
func (s *Snapshot) Clusters() int {
	n := 0
	for _, set := range s.Sets {
		if set.Cluster+1 > n {
			n = set.Cluster + 1
		}
	}
	return n
}

// Write serializes the snapshot: the magic+version header in the clear, then
// a gzip stream holding the scalars, similarity name, optional schema, the
// labeled sets (delta-varint point lists) and finally the transactions in
// internal/store's binary transaction format, then a CRC32 trailer over the
// compressed body. Writing validates first, so only well-formed snapshots
// ever reach disk.
func (s *Snapshot) Write(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	if _, err := w.Write([]byte{Version}); err != nil {
		return err
	}
	// Tee the compressed stream through the CRC so the trailer covers the
	// exact bytes a reader will checksum, with no extra buffering.
	crc := crc32.NewIEEE()
	zw := gzip.NewWriter(io.MultiWriter(w, crc))
	bw := bufio.NewWriter(zw)
	if err := s.writeBody(bw, Version); err != nil {
		zw.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		zw.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	var trailer [crcTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

func (s *Snapshot) writeBody(bw *bufio.Writer, version byte) error {
	if err := store.WriteFloat64(bw, s.Theta); err != nil {
		return err
	}
	if err := store.WriteFloat64(bw, s.FTheta); err != nil {
		return err
	}
	if err := store.WriteString(bw, s.SimName); err != nil {
		return err
	}
	hasSchema := byte(0)
	if s.Schema != nil {
		hasSchema = 1
	}
	if err := bw.WriteByte(hasSchema); err != nil {
		return err
	}
	if s.Schema != nil {
		if err := store.WriteUvarint(bw, uint64(len(s.Schema.Attrs))); err != nil {
			return err
		}
		for _, attr := range s.Schema.Attrs {
			if err := store.WriteString(bw, attr.Name); err != nil {
				return err
			}
			if err := store.WriteUvarint(bw, uint64(len(attr.Domain))); err != nil {
				return err
			}
			for _, v := range attr.Domain {
				if err := store.WriteString(bw, v); err != nil {
					return err
				}
			}
			if version >= 4 {
				hasWeights := byte(0)
				if attr.Weights != nil {
					hasWeights = 1
				}
				if err := bw.WriteByte(hasWeights); err != nil {
					return err
				}
				for _, w := range attr.Weights {
					if err := store.WriteFloat64(bw, w); err != nil {
						return err
					}
				}
			}
		}
	}
	if version >= 3 {
		hasStats := byte(0)
		if s.Stats != nil {
			hasStats = 1
		}
		if err := bw.WriteByte(hasStats); err != nil {
			return err
		}
		if s.Stats != nil {
			if err := store.WriteUvarint(bw, uint64(s.Stats.Points)); err != nil {
				return err
			}
			if err := store.WriteUvarint(bw, uint64(s.Stats.Outliers)); err != nil {
				return err
			}
			if err := store.WriteFloat64(bw, s.Stats.OutlierRate); err != nil {
				return err
			}
		}
	}
	if err := store.WriteUvarint(bw, uint64(len(s.Sets))); err != nil {
		return err
	}
	for _, set := range s.Sets {
		if err := store.WriteUvarint(bw, uint64(set.Cluster)); err != nil {
			return err
		}
		if err := store.WriteFloat64(bw, set.Norm); err != nil {
			return err
		}
		if err := store.WriteIndices(bw, set.Points); err != nil {
			return err
		}
	}
	// The transaction block is last: store's scanner buffers internally, so
	// nothing may follow it in the stream.
	if err := bw.Flush(); err != nil {
		return err
	}
	return store.WriteBinary(bw, s.Txns)
}

// Read parses a snapshot, validating the header, the format version, the
// CRC32 trailer (version 2) and every structural invariant. Arbitrary input
// must never panic; it either parses into a valid snapshot or returns an
// error.
func Read(r io.Reader) (*Snapshot, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("model: reading header: %w", err)
	}
	if [7]byte(hdr[:7]) != magic {
		return nil, fmt.Errorf("model: not a ROCK model snapshot")
	}
	var body io.Reader
	switch hdr[7] {
	case 1:
		// Legacy format: no trailer, the gzip stream runs to EOF.
		body = r
	case 2, 3, 4:
		// The trailer can only be located from the end, so the body is
		// read whole; snapshots are served from memory anyway.
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("model: reading body: %w", err)
		}
		if len(rest) < crcTrailerLen {
			return nil, fmt.Errorf("model: snapshot truncated before CRC trailer")
		}
		compressed := rest[:len(rest)-crcTrailerLen]
		want := binary.LittleEndian.Uint32(rest[len(rest)-crcTrailerLen:])
		if got := crc32.ChecksumIEEE(compressed); got != want {
			return nil, fmt.Errorf("model: snapshot corrupt: CRC32 %08x, trailer says %08x", got, want)
		}
		body = bytes.NewReader(compressed)
	default:
		return nil, fmt.Errorf("model: snapshot format version %d, this build reads <= %d", hdr[7], Version)
	}
	zr, err := gzip.NewReader(body)
	if err != nil {
		return nil, fmt.Errorf("model: opening body: %w", err)
	}
	defer zr.Close()
	s, err := readBody(bufio.NewReader(zr), hdr[7])
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func readBody(br *bufio.Reader, version byte) (*Snapshot, error) {
	s := &Snapshot{}
	var err error
	if s.Theta, err = store.ReadFloat64(br); err != nil {
		return nil, fmt.Errorf("model: reading theta: %w", err)
	}
	if s.FTheta, err = store.ReadFloat64(br); err != nil {
		return nil, fmt.Errorf("model: reading f(theta): %w", err)
	}
	if s.SimName, err = store.ReadString(br); err != nil {
		return nil, fmt.Errorf("model: reading similarity name: %w", err)
	}
	hasSchema, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("model: reading schema flag: %w", err)
	}
	switch hasSchema {
	case 0:
	case 1:
		n, err := store.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("model: reading attribute count: %w", err)
		}
		schema := &dataset.Schema{}
		for a := uint64(0); a < n; a++ {
			var attr dataset.Attribute
			if attr.Name, err = store.ReadString(br); err != nil {
				return nil, fmt.Errorf("model: reading attribute name: %w", err)
			}
			vals, err := store.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("model: reading domain size: %w", err)
			}
			for v := uint64(0); v < vals; v++ {
				dv, err := store.ReadString(br)
				if err != nil {
					return nil, fmt.Errorf("model: reading domain value: %w", err)
				}
				attr.Domain = append(attr.Domain, dv)
			}
			if version >= 4 {
				hasWeights, err := br.ReadByte()
				if err != nil {
					return nil, fmt.Errorf("model: reading weights flag: %w", err)
				}
				switch hasWeights {
				case 0:
				case 1:
					attr.Weights = make([]float64, 0, vals)
					for v := uint64(0); v < vals; v++ {
						w, err := store.ReadFloat64(br)
						if err != nil {
							return nil, fmt.Errorf("model: reading attribute weight: %w", err)
						}
						attr.Weights = append(attr.Weights, w)
					}
				default:
					return nil, fmt.Errorf("model: bad weights flag %d", hasWeights)
				}
			}
			schema.Attrs = append(schema.Attrs, attr)
		}
		s.Schema = schema
	default:
		return nil, fmt.Errorf("model: bad schema flag %d", hasSchema)
	}
	if version >= 3 {
		hasStats, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("model: reading stats flag: %w", err)
		}
		switch hasStats {
		case 0:
		case 1:
			st := &TrainStats{}
			pts, err := store.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("model: reading stats points: %w", err)
			}
			out, err := store.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("model: reading stats outliers: %w", err)
			}
			if pts > math.MaxInt64 || out > math.MaxInt64 {
				return nil, fmt.Errorf("model: stats counts out of range")
			}
			st.Points, st.Outliers = int64(pts), int64(out)
			if st.OutlierRate, err = store.ReadFloat64(br); err != nil {
				return nil, fmt.Errorf("model: reading stats outlier rate: %w", err)
			}
			s.Stats = st
		default:
			return nil, fmt.Errorf("model: bad stats flag %d", hasStats)
		}
	}
	nsets, err := store.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("model: reading set count: %w", err)
	}
	for i := uint64(0); i < nsets; i++ {
		var set Set
		c, err := store.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("model: reading set cluster: %w", err)
		}
		if c > math.MaxInt32 {
			return nil, fmt.Errorf("model: cluster index %d out of range", c)
		}
		set.Cluster = int(c)
		if set.Norm, err = store.ReadFloat64(br); err != nil {
			return nil, fmt.Errorf("model: reading set norm: %w", err)
		}
		if set.Points, err = store.ReadIndices(br); err != nil {
			return nil, fmt.Errorf("model: reading set points: %w", err)
		}
		s.Sets = append(s.Sets, set)
	}
	sc, err := store.NewBinaryScanner(br)
	if err != nil {
		return nil, fmt.Errorf("model: opening transaction block: %w", err)
	}
	for {
		t, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("model: reading transactions: %w", err)
		}
		s.Txns = append(s.Txns, t)
	}
	return s, nil
}

// Save writes the snapshot to path crash-safely: temp file, fsync, rename,
// directory fsync (store.AtomicWriteFile). A concurrently loading server
// (rockd's /v1/reload) — or a machine that loses power mid-save — observes
// either the previous snapshot or the complete new one, never a torn file.
func Save(path string, s *Snapshot) error {
	return SaveFS(store.OS, path, s)
}

// SaveFS is Save against an explicit filesystem; crash tests inject a
// store.FaultFS here to prove the old-or-new guarantee.
func SaveFS(fsys store.FS, path string, s *Snapshot) error {
	return store.AtomicWriteFile(fsys, path, s.Write)
}

// Load reads a snapshot from path.
func Load(path string) (*Snapshot, error) {
	return LoadFS(store.OS, path)
}

// LoadFS is Load against an explicit filesystem.
func LoadFS(fsys store.FS, path string) (*Snapshot, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
