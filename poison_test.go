//go:build !race

package dui

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dui/internal/campaign"
	"dui/internal/dapper"
	"dui/internal/fuzz"
	"dui/internal/netsim"
	"dui/internal/runner"
	"dui/internal/scenario"
)

// TestNoReadAfterRelease runs the lab's packet-level workloads twice: once
// recycling packets through each network's free list, and once with
// netsim.DebugHooks.PoisonReleased, which overwrites every released packet
// with poison values and never reuses it. A read of a packet after its end
// of life (a producer, receiver, tap, probe or netsim itself touching it
// after the release) changes the poisoned run's bytes, so the two must be
// byte-identical. The workloads are the quick robustness matrix, the
// full-scale Blink, PCC and DAPPER cells at seed 1 under all four fault
// profiles, the DAPPER confusion matrix of dataplane-attacks (its one
// netsim section), and the 200 fault-mode scenarios TestFaultModeReportsPinned
// pins. Over a second each without -race, so the race-enabled suite skips
// it.
func TestNoReadAfterRelease(t *testing.T) {
	workloads := []struct {
		name string
		run  func(t *testing.T) []byte
	}{
		{"robustness-quick", func(t *testing.T) []byte {
			return robustnessJSON(t, campaign.RobustnessSpec{Trials: 2, RootSeed: 1, Quick: true})
		}},
		{"robustness-tcp-full", func(t *testing.T) []byte {
			return robustnessJSON(t, campaign.RobustnessSpec{Systems: []string{"blink", "pcc", "dapper"}, Trials: 1, RootSeed: 1})
		}},
		{"dapper-confusion", func(t *testing.T) []byte {
			return marshal(t, dapper.ConfusionMatrix())
		}},
		{"fault-mode-scenarios", func(t *testing.T) []byte {
			var b []byte
			for _, seed := range runner.Seeds(7, 200) {
				rep := scenario.Run(fuzz.Generate(seed, fuzz.GenConfig{FaultModes: true}), scenario.Options{})
				b = append(b, marshal(t, rep)...)
			}
			return b
		}},
	}
	defer func() { netsim.DebugHooks.PoisonReleased = false }()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			netsim.DebugHooks.PoisonReleased = false
			recycled := w.run(t)
			netsim.DebugHooks.PoisonReleased = true
			poisoned := w.run(t)
			netsim.DebugHooks.PoisonReleased = false
			if !bytes.Equal(recycled, poisoned) {
				t.Fatalf("output changes when released packets are poisoned: a packet is read after its release\nrecycled: %.300s\npoisoned: %.300s", recycled, poisoned)
			}
		})
	}
}

func robustnessJSON(t *testing.T, spec campaign.RobustnessSpec) []byte {
	raw, err := campaign.Execute(context.Background(), campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &spec}, campaign.Env{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func marshal(t *testing.T, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
