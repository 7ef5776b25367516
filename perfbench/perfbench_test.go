package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json that names the metrics.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size on
// two seeds, untraced and traced, and checks that each run passes its
// output checks and reports exactly the metrics BENCHMARK.json names,
// with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/trace=%v", wl.name, seed, trace), func(t *testing.T) {
					var out bytes.Buffer
					o := options{workload: wl.name, seed: seed, trace: trace, out: t.TempDir(), sizes: tinySizes}
					ok, err := run(o, &out)
					if err != nil {
						t.Fatal(err)
					}
					lines := strings.Split(strings.TrimSpace(out.String()), "\n")
					var res result
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
						t.Fatalf("last line is not the result: %v\n%s", err, out.String())
					}
					if !ok || !res.Correct {
						t.Errorf("output checks failed:\n%s", out.String())
					}
					if res.Attempted < 1 || res.Failed != 0 {
						t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
					}
					want := spec.EndToEnd
					if trace {
						want = spec.PerLayer
					}
					if len(res.Metrics) != len(want) {
						t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
					}
					for _, m := range want {
						got, ok := res.Metrics[m.Name]
						switch {
						case !ok:
							t.Errorf("metric %s missing", m.Name)
						case got.Unit != m.Unit:
							t.Errorf("metric %s in %q, want %q", m.Name, got.Unit, m.Unit)
						}
					}
				})
			}
		}
	}
}
