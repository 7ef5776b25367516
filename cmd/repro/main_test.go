package main

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

// TestScenarioCampaignHonoursSpec: the campaign repro -scenario
// analyses is the spec's own campaign. With campaign.oracle false it
// runs measured identification, and its statistics equal those of the
// stream repro -scenario X dist hashes for the same spec.
func TestScenarioCampaignHonoursSpec(t *testing.T) {
	spec, err := scenario.LoadPreset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	spec.Campaign.Oracle = false
	spec.Campaign.ResetEvery = 5
	env, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs, got, err := collectObservations(spec, env, "", func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if got.Attempted == 0 {
		t.Fatal("measured spec ran no identifications: the campaign ignored campaign.oracle")
	}

	dist, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.RunCampaignStream(context.Background(), spec.CampaignConfig(dist),
		func(core.SlotRecord) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario campaign stats %+v, dist stream stats %+v", got, want)
	}
	if len(obs) != want.Served {
		t.Fatalf("%d observations, want one per served record (%d)", len(obs), want.Served)
	}
}

// reproStdout runs `repro <what>` in-process and returns its stdout.
func reproStdout(t *testing.T, what string, opt options) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	// Wall-clock lines go to stderr; keep them out of the test log.
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = out, null
	err = run(context.Background(), what, opt)
	os.Stdout, os.Stderr = stdout, stderr
	if err != nil {
		t.Fatalf("repro %s: %v", what, err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sections splits repro output at its "==== <name> ====" headers.
func sections(out string) map[string]string {
	secs := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(out, "\n") {
		if h, ok := strings.CutPrefix(line, "==== "); ok {
			name = strings.TrimSuffix(h, " ====\n")
			continue
		}
		if name != "" {
			secs[name] += line
		}
	}
	return secs
}

// block returns the paragraph of text that starts with the first line
// beginning with prefix, up to the next blank line.
func block(text, prefix string) string {
	i := strings.Index(text, "\n"+prefix)
	if i < 0 {
		return ""
	}
	para, _, _ := strings.Cut(text[i+1:], "\n\n")
	return para
}

// TestAllSectionsMatchStandalone: every experiment's section of
// `repro all` is byte-identical to `repro <experiment>` run alone, so
// no reported number depends on which experiments ran before it in the
// process. The stream section's one-pass Figure 4 and campaign summary
// also equal fig4's, since both analyse the same oracle campaign.
func TestAllSectionsMatchStandalone(t *testing.T) {
	opt := options{scale: "small", seed: 7, slots: 40, dir: t.TempDir()}
	all := sections(reproStdout(t, "all", opt))
	alone := map[string]string{}
	for _, ex := range experimentTable {
		out := reproStdout(t, ex.name, opt)
		secs := sections(out)
		if len(secs) != 1 || secs[ex.name] == "" {
			t.Fatalf("repro %s printed sections %v", ex.name, secs)
		}
		if secs[ex.name] != all[ex.name] {
			t.Errorf("repro %s differs from its section of repro all:\n--- alone\n%s--- in all\n%s", ex.name, secs[ex.name], all[ex.name])
		}
		alone[ex.name] = out
	}
	if len(all) != len(experimentTable) {
		t.Errorf("repro all printed %d sections, the table has %d", len(all), len(experimentTable))
	}
	for _, prefix := range []string{"Figure 4:", "# campaign:"} {
		fig4 := block(alone["fig4"], prefix)
		if fig4 == "" {
			t.Fatalf("repro fig4 printed no %q block", prefix)
		}
		if stream := block(alone["stream"], prefix); stream != fig4 {
			t.Errorf("stream's %q block differs from fig4's:\n--- stream\n%s\n--- fig4\n%s", prefix, stream, fig4)
		}
	}
}
