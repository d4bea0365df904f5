package faultinject

import (
	"fmt"
	"testing"
)

// TestSeededCampaign is the acceptance gate, run at the `zionbench -e fi`
// defaults (seeds 0-4, 500 faults each): every campaign must be fully
// absorbed — zero breaches, zero missed detections, zero secure-page
// leaks, clean final audit, and every bystander CVM completing with
// correct results while faulted CVMs are quarantined.
func TestSeededCampaign(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkCampaign(t, seed) })
	}
}

func checkCampaign(t *testing.T, seed int64) {
	rep, err := Run(CampaignConfig{Seed: seed, Faults: 500})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Faults < 500 {
		t.Errorf("faults = %d, want >= 500", rep.Faults)
	}
	classesHit := 0
	for c := Class(0); c < numClasses; c++ {
		if rep.ByClass[c] > 0 {
			classesHit++
		}
	}
	if classesHit < 5 {
		t.Errorf("classes exercised = %d, want >= 5", classesHit)
	}
	if rep.Outcomes[OutcomeBreach] != 0 {
		t.Errorf("breaches = %d, want 0", rep.Outcomes[OutcomeBreach])
	}
	if rep.Outcomes[OutcomeMissed] != 0 {
		t.Errorf("missed = %d, want 0", rep.Outcomes[OutcomeMissed])
	}
	if rep.Quarantines == 0 {
		t.Error("no CVM was ever quarantined; tamper class did not exercise quarantine")
	}
	if rep.SpuriousTraps == 0 {
		t.Error("no spurious traps delivered; storm class did not exercise tolerance")
	}
	if rep.LeakedBlocks != 0 {
		t.Errorf("leaked secure blocks = %d, want 0", rep.LeakedBlocks)
	}
	if len(rep.ResidualFindings) != 0 {
		t.Errorf("residual audit findings: %v", rep.ResidualFindings)
	}
	if !rep.BystandersOK {
		t.Error("a bystander CVM was perturbed by the campaign")
	}
	if !rep.Survived() {
		t.Error("campaign not survived")
	}
}

// TestCampaignDeterminism re-runs the same seed and requires identical
// class and outcome tallies: injection must be a pure function of seed.
func TestCampaignDeterminism(t *testing.T) {
	a, err := Run(CampaignConfig{Seed: 42, Faults: 120})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(CampaignConfig{Seed: 42, Faults: 120})
	if err != nil {
		t.Fatal(err)
	}
	if a.ByClass != b.ByClass {
		t.Errorf("class tallies diverged:\n%v\n%v", a.ByClass, b.ByClass)
	}
	if a.Outcomes != b.Outcomes {
		t.Errorf("outcome tallies diverged:\n%v\n%v", a.Outcomes, b.Outcomes)
	}
	if a.Quarantines != b.Quarantines || a.SpuriousTraps != b.SpuriousTraps {
		t.Errorf("counters diverged: %d/%d vs %d/%d",
			a.Quarantines, a.SpuriousTraps, b.Quarantines, b.SpuriousTraps)
	}
}

// TestSingleClassCampaigns runs a small campaign per sweepable class so
// a regression in one injector is attributed directly. The
// compartment-compromise classes are one-shot per monitor and covered by
// the RunCompromise tests instead.
func TestSingleClassCampaigns(t *testing.T) {
	for c := Class(0); c < numSweepClasses; c++ {
		c := c
		t.Run(c.String(), func(t *testing.T) {
			rep, err := Run(CampaignConfig{Seed: 7, Faults: 30, Classes: []Class{c}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outcomes[OutcomeBreach] != 0 || rep.Outcomes[OutcomeMissed] != 0 {
				t.Errorf("breaches=%d missed=%d\n%s",
					rep.Outcomes[OutcomeBreach], rep.Outcomes[OutcomeMissed], rep)
			}
			if !rep.Survived() {
				t.Errorf("not survived:\n%s", rep)
			}
		})
	}
}
