// Command advsearch runs the black-box adversary synthesis of
// internal/advsearch against the deployed systems of this reproduction
// and emits attack-frontier curves — validated success rate as a function
// of attacker cost — as machine-readable JSON on stdout.
//
// For each selected system (Blink, Pytheas, PCC) and deployment (guarded
// by the internal/supervisor countermeasures or not), a seed-deterministic
// searcher (CEM, or simulated annealing with -searcher anneal) explores
// the system's attack-knob space for minimal-cost decision flips; the
// cheapest flipping candidates are then re-validated at independent seeds
// to price their reliability.
//
// The search itself lives in internal/campaign's adv job kind
// (campaign.RunAdv); this binary is a thin client over it. -server
// submits the search to a running duid server instead of executing
// inline — the JSON is byte-identical either way.
//
// The entire output is a pure function of (-seed, -gens, -pop, -searcher,
// -system, -guarded, -validate, -quick): bit-identical across reruns and
// across any -parallel setting, so a frontier is reproducible from the
// single seed printed inside it. Stdout carries only the JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dui/internal/campaign"
	"dui/internal/cli"
)

func main() {
	var (
		system   = flag.String("system", "all", "blink | pytheas | pcc | all")
		guarded  = flag.String("guarded", "both", "on | off | both")
		searcher = flag.String("searcher", "cem", "cem | anneal")
		seed     = cli.Seed("root seed; the whole output derives from it")
		gens     = flag.Int("gens", 8, "search generations")
		pop      = flag.Int("pop", 24, "population per generation")
		validate = flag.Int("validate", 5, "validation replications per frontier candidate")
		parallel = cli.Parallel("evaluation workers (0 = all cores; output identical at any setting)")
		server   = flag.String("server", "", "submit the search to the duid server at this URL")
		quick    = flag.Bool("quick", false, "reduced budget (3x8, 2 validations) and shrunk per-eval simulations for smoke runs")
	)
	cli.Parse("advsearch")
	if *quick {
		*gens, *pop, *validate = 3, 8, 2
	}

	var systems []string
	switch *system {
	case "all":
		systems = nil // canonical default: blink, pytheas, pcc
	case "blink", "pytheas", "pcc":
		systems = []string{*system}
	default:
		fmt.Fprintf(os.Stderr, "advsearch: unknown -system %q\n", *system)
		os.Exit(2)
	}
	switch *guarded {
	case "both", "off", "on":
	default:
		fmt.Fprintf(os.Stderr, "advsearch: unknown -guarded %q\n", *guarded)
		os.Exit(2)
	}
	switch *searcher {
	case "cem", "anneal":
	default:
		fmt.Fprintf(os.Stderr, "advsearch: unknown -searcher %q\n", *searcher)
		os.Exit(2)
	}

	spec := campaign.JobSpec{Kind: campaign.KindAdv, Adv: &campaign.AdvSpec{
		Systems: systems, Guarded: *guarded, Searcher: *searcher,
		Seed: *seed, Gens: *gens, Pop: *pop, Validate: *validate, Quick: *quick,
	}}
	raw, err := cli.DispatchCampaign(context.Background(), "advsearch", *server, spec, campaign.Env{Workers: *parallel}, true)
	if err != nil {
		fmt.Fprintf(os.Stderr, "advsearch: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(raw)
}
