package main

import (
	"context"
	"reflect"
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
	built, err := spec.Build(scenario.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	obs, got, err := collectObservations(built, "", func(int) {})
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
	want, err := core.RunCampaignStream(context.Background(), dist.CampaignConfig(),
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
