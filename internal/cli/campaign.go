package cli

import (
	"context"
	"fmt"
	"os"
	"sync"

	"dui/internal/campaign"
)

// DispatchCampaign runs a campaign spec inline under env or — when
// server is non-empty — through the duid server at that URL, and returns
// the canonical result bytes. The two paths are byte-identical by
// construction (see internal/campaign.Dispatch); this helper only adds
// the drivers' shared stderr progress reporting, printed every 50
// completed trials unless quiet, after any env.OnProgress.
func DispatchCampaign(ctx context.Context, tool, server string, spec campaign.JobSpec, env campaign.Env, quiet bool) ([]byte, error) {
	if !quiet {
		var mu sync.Mutex
		lastDone := -1
		next := env.OnProgress
		env.OnProgress = func(p campaign.Progress) {
			if next != nil {
				next(p)
			}
			mu.Lock()
			defer mu.Unlock()
			if p.Done == lastDone || (p.Done%50 != 0 && p.Done != p.Total) {
				return
			}
			lastDone = p.Done
			fmt.Fprintf(os.Stderr, "%s: %d/%d trials\n", tool, p.Done, p.Total)
		}
	}
	return campaign.Dispatch(ctx, spec, campaign.DispatchOpts{Server: server, Env: env})
}
