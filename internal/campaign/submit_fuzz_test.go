package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dui/internal/campaign"
)

// FuzzHandleSubmit drives POST /v1/jobs on a fresh server per body. Every
// body is answered 200, 400 or 413 without a panic; a rejected body
// leaves the job list empty, and an accepted one leaves exactly one job,
// keyed by the canonical spec the body decodes to. The server's shard
// executor blocks until Close, so no simulation runs. Plain `go test`
// runs the seeds; `go test -fuzz FuzzHandleSubmit` explores.
func FuzzHandleSubmit(f *testing.F) {
	for _, body := range []string{
		`{"kind":"fuzz","fuzz":{"seeds":40,"root_seed":7,"faults":true,"shrink":true}}`,
		`{"kind":"chaos","chaos":{"trials":3,"levels":3}}`,
		`{"kind":"adv","adv":{"systems":["pcc","blink"],"guarded":"on","gens":2,"pop":4}}`,
		`{"kind":"robustness","robustness":{"systems":["pcc"],"profiles":["none"],"trials":2,"quick":true}}`,
		`{"kind":"nope"}`,
		`{"kind":"scenarios","scenarios":{"scenarios":[{"name":"retired"}]}}`,
		`{"kind":"fuzz","fuzz":{"seeds":`,
		`{"kind":"fuzz","pad":"` + strings.Repeat("x", 64<<10) + `"}`,
	} {
		f.Add([]byte(body))
	}
	block := func(ctx context.Context, _ campaign.ShardRequest) ([]campaign.TrialRec, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := campaign.NewShardedServer(t.TempDir(), campaign.Options{Workers: 1}, 1, 1, block)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		submit := httptest.NewRecorder()
		srv.Handler().ServeHTTP(submit, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		list := httptest.NewRecorder()
		srv.Handler().ServeHTTP(list, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
		var jobs []campaign.JobStatus
		if err := json.Unmarshal(list.Body.Bytes(), &jobs); err != nil {
			t.Fatalf("job list: %v", err)
		}

		switch submit.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(jobs) != 0 {
				t.Fatalf("body answered %d created jobs %+v", submit.Code, jobs)
			}
		case http.StatusOK:
			var spec campaign.JobSpec
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
				t.Fatalf("accepted body does not decode: %v", err)
			}
			canon, err := spec.Canon()
			if err != nil {
				t.Fatalf("accepted body's spec fails Canon: %v", err)
			}
			if len(jobs) != 1 || jobs[0].Key != campaign.Key(canon) {
				t.Fatalf("accepted body left jobs %+v, want one keyed %s", jobs, campaign.Key(canon))
			}
		default:
			t.Fatalf("body answered %d: %s", submit.Code, submit.Body)
		}
	})
}
