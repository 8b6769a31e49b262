// Command robustness evaluates the full defense robustness matrix: every
// §3.2/§4 case-study system × its attacks × guard-on/guard-off × benign
// fault profile, each cell scored over twin-run trials (attacked run plus
// attack-free twin at the same seed) with the standardized metrics of
// internal/robustness — detect rate, false-veto rate, normalized damage,
// twin damage, and guard cost.
//
// The trial body lives in internal/campaign's robustness job kind; this
// binary is a thin client over it. -json emits the canonical campaign
// result JSON instead of the table, and -server submits the matrix to a
// running duid server — both byte-identical to inline execution at any
// -parallel setting.
//
// -defense-eval renders the E8 §5 countermeasure report instead of the
// matrix: the point evaluations of the paper's three supervisors, which
// the matrix subsumes (robustness.EvalDefenses; duireport's E8 section
// formats the same numbers).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dui/internal/campaign"
	"dui/internal/cli"
	"dui/internal/robustness"
)

func main() {
	var (
		systems  = flag.String("systems", "", "comma-separated system subset (default all: "+strings.Join(robustness.SystemNames(), ",")+")")
		profiles = flag.String("profiles", "", "comma-separated fault profiles (default all: none,gray,flap,degrade)")
		trials   = flag.Int("trials", 2, "twin-run reps per matrix cell")
		seed     = cli.Seed("root seed (every rep derives its own stream)")
		parallel = cli.Parallel("trial workers (0 = all cores; output identical at any setting)")
		jsonOut  = flag.Bool("json", false, "emit the canonical campaign result JSON instead of the table")
		server   = flag.String("server", "", "submit the matrix to the duid server at this URL")
		quick    = flag.Bool("quick", false, "reduced per-cell simulations for smoke runs")
		defense  = flag.Bool("defense-eval", false, "render the E8 §5 countermeasure report instead of the matrix")
	)
	cli.Parse("robustness")

	if *defense {
		robustness.WriteDefenseEval(os.Stdout, *seed, *parallel)
		return
	}

	spec := campaign.JobSpec{Kind: campaign.KindRobustness, Robustness: &campaign.RobustnessSpec{
		Systems:  splitList(*systems),
		Profiles: splitList(*profiles),
		Trials:   *trials,
		RootSeed: *seed,
		Quick:    *quick,
	}}
	raw, err := cli.DispatchCampaign(context.Background(), "robustness", *server, spec, *parallel, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustness:", err)
		os.Exit(1)
	}
	if *jsonOut {
		os.Stdout.Write(raw)
		return
	}
	var res campaign.RobustnessResult
	if err := json.Unmarshal(raw, &res); err != nil {
		fmt.Fprintln(os.Stderr, "robustness: bad result:", err)
		os.Exit(1)
	}
	fmt.Printf("Robustness matrix: %d systems x attacks x guard arms x %d profiles, %d trials/cell (seed %d)\n",
		len(res.Systems), len(res.Profiles), res.Trials, res.RootSeed)
	fmt.Print(robustness.RenderTable(res.Cells))
}

// splitList parses a comma-separated flag into its non-empty entries.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
