package campaign_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dui/internal/campaign"
	"dui/internal/fuzz"
)

// FuzzCanon drives JobSpec.Canon with job bodies decoded as the server's
// submit handler decodes them. For every body Canon accepts it checks
// that canonicalization is idempotent, that the Key is stable, and that
// the submitted spec is left unwritten; for every body, that Canon does
// not panic. Plain `go test` runs the seeds; `go test -fuzz FuzzCanon`
// explores.
func FuzzCanon(f *testing.F) {
	scn, err := json.Marshal(fuzz.Generate(11, fuzz.GenConfig{MaxNodes: 6}))
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		`{"kind":"fuzz"}`,
		`{"kind":"fuzz","fuzz":{"seeds":40,"root_seed":7,"faults":true,"shrink":true}}`,
		`{"kind":"fuzz","fuzz":{"max_nodes":-1}}`,
		`{"kind":"fuzz","fuzz":{"max_nodes":12}}`,
		`{"kind":"fuzz","fuzz":{"max_nodes":2}}`,
		`{"kind":"fuzz","fuzz":{"shrink_budget":50}}`,
		`{"kind":"fuzz","fuzz":{"shrink":true,"shrink_budget":-5}}`,
		`{"kind":"fuzz","fuzz":{"shrink":true,"shrink_budget":400}}`,
		`{"kind":"chaos","chaos":{"trials":3,"levels":3}}`,
		`{"kind":"scenarios","scenarios":{"scenarios":[` + string(scn) + `]}}`,
		`{"kind":"adv","adv":{"systems":["pcc","blink"],"guarded":"on","gens":2,"pop":4}}`,
		`{"kind":"robustness","robustness":{"systems":["pcc"],"profiles":["none"],"trials":2,"quick":true}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decode := func() (campaign.JobSpec, bool) {
			var s campaign.JobSpec
			return s, json.NewDecoder(bytes.NewReader(body)).Decode(&s) == nil
		}
		spec, ok := decode()
		if !ok {
			return
		}
		canon, err := spec.Canon()
		if err != nil {
			return
		}
		if orig, _ := decode(); !reflect.DeepEqual(spec, orig) {
			t.Fatalf("Canon wrote its input:\n got %+v\nwant %+v", spec, orig)
		}
		again, err := canon.Canon()
		if err != nil {
			t.Fatalf("Canon rejects its own output %+v: %v", canon, err)
		}
		if !reflect.DeepEqual(again, canon) {
			t.Fatalf("Canon is not idempotent:\nonce  %+v\ntwice %+v", canon, again)
		}
		if k := campaign.Key(canon); k != campaign.Key(again) || k != campaign.Key(canon) {
			t.Fatalf("Key of %+v is unstable", canon)
		}
	})
}
