package experiments

import (
	"fmt"
	"strings"

	"rock/internal/dataset"
	"rock/internal/links"
	"rock/internal/rockcore"
	"rock/internal/sim"
)

// Figure1Result reports the paper's worked link-count example (Sections 1.2
// and 3.2 on the Figure 1 basket data) together with a full ROCK run on it.
type Figure1Result struct {
	// LinkChecks are the paper's quoted link counts vs ours.
	LinkChecks []LinkCheck
	// Clusters is the ROCK clustering of the 14 transactions.
	Clusters [][]string
}

// LinkCheck compares one quoted link count with the measured one.
type LinkCheck struct {
	A, B  string
	Want  int
	Got   int
	Claim string
}

func (r *Figure1Result) String() string {
	var b strings.Builder
	for _, c := range r.LinkChecks {
		status := "ok"
		if c.Got != c.Want {
			status = "MISMATCH"
		}
		fmt.Fprintf(&b, "link(%s, %s) = %d (paper: %d) %s — %s\n", c.A, c.B, c.Got, c.Want, status, c.Claim)
	}
	b.WriteString("ROCK clustering of the Figure 1 transactions:\n")
	for i, c := range r.Clusters {
		fmt.Fprintf(&b, "  cluster %d: %s\n", i+1, strings.Join(c, " "))
	}
	return b.String()
}

// Figure1 reproduces the Figure 1 example: all 3-subsets of {1..5} and of
// {1,2,6,7}, links under Jaccard at theta = 0.5, and the resulting ROCK
// clustering.
func Figure1() *Figure1Result {
	var txns []dataset.Transaction
	add := func(items []dataset.Item) {
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				for k := j + 1; k < len(items); k++ {
					txns = append(txns, dataset.NewTransaction(items[i], items[j], items[k]))
				}
			}
		}
	}
	add([]dataset.Item{1, 2, 3, 4, 5})
	add([]dataset.Item{1, 2, 6, 7})

	find := func(items ...dataset.Item) int {
		w := dataset.NewTransaction(items...)
		for i, t := range txns {
			if t.Equal(w) {
				return i
			}
		}
		panic("figure1: transaction not found")
	}

	nb := links.ComputeNeighbors(len(txns), sim.ByIndex(txns, sim.Jaccard), links.Config{Theta: 0.5})
	table := links.Compute(nb, 1)

	out := &Figure1Result{}
	check := func(a, b []dataset.Item, want int, claim string) {
		ia, ib := find(a...), find(b...)
		out.LinkChecks = append(out.LinkChecks, LinkCheck{
			A: txns[ia].String(), B: txns[ib].String(),
			Want: want, Got: table.Get(ia, ib), Claim: claim,
		})
	}
	check([]dataset.Item{1, 2, 6}, []dataset.Item{1, 2, 7}, 5, "same small cluster (Section 3.2)")
	check([]dataset.Item{1, 2, 6}, []dataset.Item{1, 2, 3}, 3, "across clusters (Section 3.2)")
	check([]dataset.Item{1, 2, 3}, []dataset.Item{1, 2, 4}, 5, "same big cluster (Example 1.2)")
	check([]dataset.Item{1, 6, 7}, []dataset.Item{2, 6, 7}, 2, "within small cluster (Section 3.2)")
	check([]dataset.Item{1, 6, 7}, []dataset.Item{3, 4, 5}, 0, "no links to the big cluster's non-{1,2} transactions")

	res, err := rockcore.Cluster(len(txns), sim.ByIndex(txns, sim.Jaccard), rockcore.Config{
		K: 2, Theta: 0.5,
		// The dense 14-point example is best modeled with f ≈ 1 (see
		// DESIGN.md); the paper's (1-theta)/(1+theta) targets sparse
		// market-basket clusters.
		F: func(float64) float64 { return 1 },
	})
	if err != nil {
		panic(err)
	}
	for _, c := range res.Clusters {
		var names []string
		for _, p := range c {
			names = append(names, txns[p].String())
		}
		out.Clusters = append(out.Clusters, names)
	}
	return out
}
