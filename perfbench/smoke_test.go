package main

import (
	"strings"
	"testing"
)

// TestWorkloadsSmoke runs every workload at tiny size, untraced and
// traced, and requires a correct run that reports every metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{seed: 3, seconds: 2, trace: traced, tiny: true, dir: t.TempDir(), pace: startPacer()}
				res, err := w.run(e)
				e.pace.halt()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.violations) > 0 {
					t.Fatalf("violations:\n%s", strings.Join(res.violations, "\n"))
				}
				line, err := report(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(line, `{"correct":true,`) {
					t.Fatalf("result line %s", line)
				}
				want := e2eMetrics
				if traced {
					want = nil
					for n := range layerMetrics {
						want = append(want, n)
					}
				}
				for _, n := range want {
					if !strings.Contains(line, `"`+n+`":`) {
						t.Errorf("metric %s missing from %s", n, line)
					}
				}
				if traced && len(res.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}
