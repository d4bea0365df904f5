package faultinject

import (
	"strings"
	"testing"
)

// TestCompromiseCampaign is the blast-radius acceptance gate: each
// compartment compromised in turn must be quarantined with a post-mortem,
// bystander CVMs must complete bit-identically to a fault-free reference
// (or, for the world switch, be refused with a typed error and drain
// through forced teardown), and the invariant auditor must stay clean on
// every surviving compartment. Seed 1 over the full scenario matrix is
// the `zionbench -e fic` default.
func TestCompromiseCampaign(t *testing.T) {
	rep, err := RunCompromise(CompromiseConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if len(rep.Results) != len(CompromiseScenarios()) {
		t.Fatalf("scenarios run = %d, want %d", len(rep.Results), len(CompromiseScenarios()))
	}
	for _, res := range rep.Results {
		if !res.OK {
			t.Errorf("%s: %s", res.Scenario, res.Detail)
			continue
		}
		if res.Scenario == "gate-fuzz" {
			if res.Quarantined {
				t.Errorf("gate-fuzz (negative control) quarantined %v", res.Target)
			}
			continue
		}
		if !res.Quarantined || res.PostMortem == nil {
			t.Errorf("%s: %v not quarantined with a post-mortem", res.Scenario, res.Target)
			continue
		}
		if res.PostMortem.Compartment != res.Target {
			t.Errorf("%s: post-mortem names %v, want %v",
				res.Scenario, res.PostMortem.Compartment, res.Target)
		}
		if res.PostMortem.Cause == nil || res.PostMortem.Op == "" {
			t.Errorf("%s: post-mortem missing cause/op: %+v", res.Scenario, res.PostMortem)
		}
		if len(res.PostMortem.Flight) == 0 {
			t.Errorf("%s: post-mortem carries no flight-recorder tail", res.Scenario)
		}
		if res.Scenario == "alloc-corrupt" && res.PostMortem.Salvage == "" {
			t.Errorf("alloc-corrupt: no salvage recorded in post-mortem")
		}
	}
	if !rep.Survived() {
		t.Error("compromise campaign not survived")
	}
}

// TestCompromiseDeterminism re-runs the campaign under the same seed and
// requires identical verdicts and gate-denial counts.
func TestCompromiseDeterminism(t *testing.T) {
	a, err := RunCompromise(CompromiseConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCompromise(CompromiseConfig{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts diverged: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.OK != rb.OK || ra.BitIdentical != rb.BitIdentical || ra.GateDenied != rb.GateDenied {
			t.Errorf("%s diverged: %+v vs %+v", ra.Scenario, ra, rb)
		}
	}
}

// TestCampaignRejectsCompromiseClasses: Run and Inject must refuse
// one-shot compartment-compromise classes with a diagnostic pointing at
// RunCompromise instead of sweeping them into a wedged campaign.
func TestCampaignRejectsCompromiseClasses(t *testing.T) {
	in, err := NewInjector(7, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Class{ClassAllocCorrupt, ClassAttestSmash, ClassGateFuzz, ClassCompHang} {
		_, runErr := Run(CampaignConfig{Seed: 1, Faults: 5, Classes: []Class{c}})
		_, injErr := in.Inject(c)
		for what, err := range map[string]error{"Run": runErr, "Inject": injErr} {
			if err == nil {
				t.Errorf("%s accepted one-shot class %v", what, c)
			} else if !strings.Contains(err.Error(), "RunCompromise") {
				t.Errorf("%s(%v) diagnostic does not name RunCompromise: %v", what, c, err)
			}
		}
	}
}
