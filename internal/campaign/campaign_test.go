package campaign_test

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"dui/internal/campaign"
	"dui/internal/fuzz"
	"dui/internal/robustness"
)

// TestCanonDefaults pins the canonical defaults of every kind: a bare
// spec and a fully spelled-out default spec must canonicalize equal.
func TestCanonDefaults(t *testing.T) {
	fz, err := campaign.JobSpec{Kind: campaign.KindFuzz}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	if fz.Fuzz.Seeds != 200 || fz.Fuzz.RootSeed != 1 {
		t.Fatalf("fuzz defaults = %+v", fz.Fuzz)
	}
	ch, err := campaign.JobSpec{Kind: campaign.KindChaos}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	if ch.Chaos.Trials != 10 || ch.Chaos.Levels != 6 || ch.Chaos.RootSeed != 1 ||
		ch.Chaos.FailAt != 20 || ch.Chaos.Duration != 45 {
		t.Fatalf("chaos defaults = %+v", ch.Chaos)
	}
	ad, err := campaign.JobSpec{Kind: campaign.KindAdv}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.Adv.Systems) != 3 || ad.Adv.Guarded != "both" || ad.Adv.Searcher != "cem" ||
		ad.Adv.Seed != 1 || ad.Adv.Gens != 8 || ad.Adv.Pop != 24 || ad.Adv.Validate != 5 {
		t.Fatalf("adv defaults = %+v", ad.Adv)
	}
}

// TestCanonRejects pins the validation errors.
func TestCanonRejects(t *testing.T) {
	cases := []struct {
		name string
		spec campaign.JobSpec
		want string
	}{
		{"unknown kind", campaign.JobSpec{Kind: "nope"}, "unknown job kind"},
		{"chaos one level", campaign.JobSpec{Kind: campaign.KindChaos,
			Chaos: &campaign.ChaosSpec{Levels: 1}}, "levels >= 2"},
		{"chaos fail after end", campaign.JobSpec{Kind: campaign.KindChaos,
			Chaos: &campaign.ChaosSpec{FailAt: 50, Duration: 45}}, "fail_at < duration"},
		{"adv unknown system", campaign.JobSpec{Kind: campaign.KindAdv,
			Adv: &campaign.AdvSpec{Systems: []string{"ron"}}}, "unknown system"},
		{"adv unknown guarded", campaign.JobSpec{Kind: campaign.KindAdv,
			Adv: &campaign.AdvSpec{Guarded: "maybe"}}, "unknown guarded"},
		{"fuzz max_nodes past the address plan", campaign.JobSpec{Kind: campaign.KindFuzz,
			Fuzz: &campaign.FuzzSpec{MaxNodes: 256}}, "max_nodes 256 exceeds the 255-host address plan"},
	}
	for _, c := range cases {
		if _, err := c.spec.Canon(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestCanonLeavesInputUntouched: Canon returns a fresh spec and never
// writes into its caller's, even when canonicalizing reorders or dedups a
// selection in place would be cheaper. Each case builds its spec twice so
// the untouched copy shares no backing array with the canonicalized one.
func TestCanonLeavesInputUntouched(t *testing.T) {
	for _, c := range []struct {
		name string
		mk   func() campaign.JobSpec
	}{
		{"fuzz", func() campaign.JobSpec {
			return campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{MaxNodes: 8, Shrink: true}}
		}},
		{"chaos", func() campaign.JobSpec {
			return campaign.JobSpec{Kind: campaign.KindChaos, Chaos: &campaign.ChaosSpec{Levels: 3}}
		}},
		{"adv", func() campaign.JobSpec {
			return campaign.JobSpec{Kind: campaign.KindAdv, Adv: &campaign.AdvSpec{Systems: []string{"pcc", "blink", "pcc"}}}
		}},
		{"robustness", func() campaign.JobSpec {
			return campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{
				Systems: []string{"sketch", "pcc"}, Profiles: []string{"gray", "none"}}}
		}},
	} {
		in := c.mk()
		if _, err := in.Canon(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := c.mk(); !reflect.DeepEqual(in, want) {
			got, _ := json.Marshal(in)
			orig, _ := json.Marshal(want)
			t.Errorf("%s: Canon wrote into its input:\n got %s\nwant %s", c.name, got, orig)
		}
	}
}

// TestKeySpellingInvariance: two spellings of the same campaign share a
// Key; changing any spec ingredient changes it.
func TestKeySpellingInvariance(t *testing.T) {
	bare, err := campaign.JobSpec{Kind: campaign.KindFuzz}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	spelled, err := campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: 200, RootSeed: 1}}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	if campaign.Key(bare) != campaign.Key(spelled) {
		t.Fatalf("default spellings hash apart: %s vs %s", campaign.Key(bare), campaign.Key(spelled))
	}
	reseeded, err := campaign.JobSpec{Kind: campaign.KindFuzz,
		Fuzz: &campaign.FuzzSpec{Seeds: 200, RootSeed: 2}}.Canon()
	if err != nil {
		t.Fatal(err)
	}
	if campaign.Key(bare) == campaign.Key(reseeded) {
		t.Fatal("root seed does not reach the cache key")
	}

	// Spellings of one campaign share a Key; the groups differ. The
	// generator reads max_nodes <= 0 as 12 and 1-2 as 3; the shrinker
	// reads a budget <= 0 as its default and none without shrink.
	fuzzKey := func(f campaign.FuzzSpec) string {
		c, err := campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &f}.Canon()
		if err != nil {
			t.Fatal(err)
		}
		return campaign.Key(c)
	}
	groups := [][]campaign.FuzzSpec{
		{{}, {MaxNodes: -1}, {MaxNodes: 12}, {ShrinkBudget: 50}, {ShrinkBudget: -1}},
		{{MaxNodes: 1}, {MaxNodes: 2}, {MaxNodes: 3}},
		{{Shrink: true}, {Shrink: true, ShrinkBudget: -5}, {Shrink: true, ShrinkBudget: fuzz.DefaultShrinkBudget}},
		{{Shrink: true, ShrinkBudget: 50}},
	}
	seen := map[string]int{}
	for g, group := range groups {
		for _, f := range group {
			k := fuzzKey(f)
			if k != fuzzKey(group[0]) {
				t.Errorf("%+v and %+v run one campaign but hash apart", f, group[0])
			}
			if prev, ok := seen[k]; ok && prev != g {
				t.Errorf("%+v shares a Key with spelling group %d", f, prev)
			}
			seen[k] = g
		}
	}
	// The default spec's canonical bytes, which Key hashes, predate the
	// canonical spellings: cached results and journals of default
	// campaigns stay valid.
	if enc, _ := json.Marshal(bare); string(enc) != `{"kind":"fuzz","fuzz":{"seeds":200,"root_seed":1}}` {
		t.Errorf("the default fuzz spec canonicalizes to %s", enc)
	}
}

// TestCanonTrialCap: every kind's trial count is accepted at
// campaign.MaxTrials and rejected one step above it, including products
// whose int multiplication would overflow to a small value.
func TestCanonTrialCap(t *testing.T) {
	const capN = campaign.MaxTrials
	fuzz := func(seeds int) campaign.JobSpec {
		return campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{Seeds: seeds}}
	}
	chaos := func(trials, levels int) campaign.JobSpec {
		return campaign.JobSpec{Kind: campaign.KindChaos, Chaos: &campaign.ChaosSpec{Trials: trials, Levels: levels}}
	}
	adv := func(gens, pop, validate int) campaign.JobSpec {
		return campaign.JobSpec{Kind: campaign.KindAdv, Adv: &campaign.AdvSpec{Gens: gens, Pop: pop, Validate: validate}}
	}
	// One system under one profile: its attacks x two guard arms.
	systems, err := robustness.Select([]string{"pcc"})
	if err != nil {
		t.Fatal(err)
	}
	profiles, err := robustness.Profiles([]string{"none"})
	if err != nil {
		t.Fatal(err)
	}
	cells := len(robustness.EnumerateCells(systems, profiles))
	matrix := func(trials int) campaign.JobSpec {
		return campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{
			Systems: []string{"pcc"}, Profiles: []string{"none"}, Trials: trials}}
	}
	// 17 x 61681 = MaxTrials + 1.
	for _, c := range []struct {
		name     string
		at, over campaign.JobSpec
	}{
		{"fuzz seeds", fuzz(capN), fuzz(capN + 1)},
		{"chaos trials x levels", chaos(capN/2, 2), chaos(61681, 17)},
		{"chaos overflowing product", chaos(capN/4, 4), chaos(1<<32, 1<<32)},
		{"adv gens x pop", adv(1<<10, 1<<10, 0), adv(17, 61681, 0)},
		{"adv overflowing product", adv(1<<10, 1<<10, 0), adv(math.MaxInt, math.MaxInt, 0)},
		{"adv validations", adv(0, 0, capN), adv(0, 0, capN+1)},
		{"robustness cells x trials", matrix(capN / cells), matrix(capN/cells + 1)},
	} {
		if _, err := c.at.Canon(); err != nil {
			t.Errorf("%s at the cap: %v", c.name, err)
		}
		if _, err := c.over.Canon(); err == nil || !strings.Contains(err.Error(), "trial cap") {
			t.Errorf("%s over the cap: err = %v, want the trial cap", c.name, err)
		}
	}
}

// TestCanonJSONPinned pins the canonical JSON (and so the cache Key
// input) of specs that were valid before the trial and node caps, so
// adding validation cannot move an existing cache entry.
func TestCanonJSONPinned(t *testing.T) {
	for _, c := range []struct {
		spec campaign.JobSpec
		want string
	}{
		{campaign.JobSpec{Kind: campaign.KindFuzz, Fuzz: &campaign.FuzzSpec{Seeds: 5000, MaxNodes: 255, Faults: true, Shrink: true}},
			`{"kind":"fuzz","fuzz":{"seeds":5000,"root_seed":1,"max_nodes":255,"faults":true,"shrink":true}}`},
		{campaign.JobSpec{Kind: campaign.KindChaos, Chaos: &campaign.ChaosSpec{Trials: 3, Levels: 3}},
			`{"kind":"chaos","chaos":{"trials":3,"levels":3,"root_seed":1,"fail_at":20,"duration":45}}`},
		{campaign.JobSpec{Kind: campaign.KindAdv},
			`{"kind":"adv","adv":{"systems":["blink","pytheas","pcc"],"guarded":"both","searcher":"cem","seed":1,"gens":8,"pop":24,"validate":5}}`},
		{campaign.JobSpec{Kind: campaign.KindAdv, Adv: &campaign.AdvSpec{Systems: []string{"pcc", "blink", "pcc"}, Quick: true}},
			`{"kind":"adv","adv":{"systems":["blink","pcc"],"guarded":"both","searcher":"cem","seed":1,"gens":8,"pop":24,"validate":5,"quick":true}}`},
		{campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{Systems: []string{"sketch", "pcc"}, Profiles: []string{"gray", "none"}, Trials: 1}},
			`{"kind":"robustness","robustness":{"systems":["pcc","sketch"],"profiles":["none","gray"],"trials":1,"root_seed":1}}`},
	} {
		canon, err := c.spec.Canon()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("canonical JSON\n got %s\nwant %s", got, c.want)
		}
	}
}
