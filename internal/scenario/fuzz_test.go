package scenario_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"testing"

	"repro/internal/scenario"
	"repro/scenarios"
)

// FuzzScenarioSpec feeds arbitrary bytes to the run-description
// decoder. Parse must never panic; a spec it accepts must validate
// again, and must re-encode to JSON that parses back to the same
// encoding.
func FuzzScenarioSpec(f *testing.F) {
	for _, name := range scenario.PresetNames() {
		b, err := fs.ReadFile(scenarios.FS, name+".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"name":"x"} trailing`))
	f.Add([]byte(`{"version":1,"name":"x","unknown":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec fails a second Validate: %v", err)
		}
		first, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		back, err := scenario.Parse(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not stable:\n%s\n%s", first, second)
		}
	})
}
