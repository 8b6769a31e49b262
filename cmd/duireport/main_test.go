package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as duireport itself: when a test
// re-executes it with this variable set, init runs main on the real
// os.Args. init runs before the testing package registers its own flags,
// so main sees exactly the flag set and argument handling a user gets.
const runMainEnv = "DUIREPORT_RUN_MAIN"

func init() {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
}

// run executes duireport with args in a child process and returns its
// stdout, stderr and exit status.
func run(t *testing.T, args ...string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.Bytes(), errOut.Bytes(), cmd.ProcessState.ExitCode()
}

// stdoutPins are the SHA-256 digests of stdout that each subcommand's
// former standalone binary (blink-survey, blink-hijack, pcc-oscillate,
// pytheas-poison, nethide-trace, dataplane-attacks, blink-fig2,
// blink-pop, advsearch, robustness, chaos-eval) printed for these flags.
// The hijack ensemble pins the same digest at one and two workers, and
// the audited blink-pop run the same digest at one shard on one worker
// and seven shards on four.
var stdoutPins = []struct{ args, sha string }{
	{"blink-survey", "0dca1c5df958dc4d176195fd598032f7858f70456e85eb549df40294de7efa46"},
	{"blink-survey -prefixes 4 -flows 100 -seed 2", "71a4219e58dcff1ce90175ecb9d5ab6bf73180426495ed8113b5cbbdb440c6dc"},
	{"blink-hijack", "44f8f30828248c438066a2173c54e2966d5f02b948b4bfa17c02392779549841"},
	{"blink-hijack -legit", "e88ef5db6f18b5055a163ae2590d911997a9c7cf60807203a34e1aa51309c12c"},
	{"blink-hijack -defended", "6920698de4c55c30338be07e492f4d7dfbad7dadba5aacc30b763d7b4d2a7097"},
	{"blink-hijack -runs 3 -duration 120 -trigger 80 -parallel 1", "efec1cf493a48f39a1c71b12e8527333eead64774713399d2c77d646c724639a"},
	{"blink-hijack -runs 3 -duration 120 -trigger 80 -parallel 2", "efec1cf493a48f39a1c71b12e8527333eead64774713399d2c77d646c724639a"},
	{"pcc-oscillate", "3e29e124c005e9ed1f84c6b0664689449aaa9db2219cec6e3923e0bdeb3ec01e"},
	{"pcc-oscillate -flows 3 -duration 60 -mitrace", "fc92072453c28bd964cd9128a761bcf4f764fbd7fa4aa05cb0f5cede9a32f471"},
	{"pytheas-poison", "c83e2ae2ae356449f1b679b0b800c6aec1889af34ac85a6c9eac277798578b17"},
	{"pytheas-poison -sessions 300 -epochs 100 -multiplier 3 -seed 2", "7aea06eb161c7250f1ac39494ad2bbcdf1537119cd14bb1cd8bf77842bfe75c5"},
	{"nethide-trace", "8b3799a7d03c5e8520204385df5ea6f050faee0e6867611ef63dba314477e7fd"},
	{"nethide-trace -seed 2", "53f21d121e1a1a41ea5401e3454b553c1bf7e367e0d6d26d13d59d6e8a48b996"},
	{"blink-fig2 -runs 6 -duration 120 -flows 400 -meandur 6.35", "9db053f505e8e5e26d6eb98eeeeac399cc4b28717468c263d587d61e7b2a4896"},
	{"blink-fig2 -runs 4 -duration 120 -flows 400 -meandur 6.35 -csv", "3b78a596539cea56935ac04ca088f68a385e597e592da487734fce14aae843c0"},
	{"blink-pop -quick", "4bb4e558f0d741b55c965ba3d025ec47a90f6dd9e16d218f52a5a858a9aa2720"},
	{"blink-pop -quick -audit-every 8 -shards 7 -parallel 4", "bda212334ab55a06d67cb9be4f348d30d5d845dacbded798ca1e2910072eee4c"},
	{"blink-pop -quick -audit-every 8 -shards 1 -parallel 1", "bda212334ab55a06d67cb9be4f348d30d5d845dacbded798ca1e2910072eee4c"},
	{"advsearch -quick -system blink", "4c9f3cf70fb3f987f18c633da67e78ed4c800609e604433218380a9920e30700"},
	{"advsearch -quick -system pytheas -searcher anneal -guarded on", "aa95e9a33b664c8d4af881d5250d7eceba1cb36cfdd1346e81a82a39d3524fd7"},
	{"robustness -defense-eval", "9eacd12f1bd11cf6fabf9951194a58922763a48d8ae6dd426bc5779257fa3c95"},
	{"robustness -quick -trials 1 -systems pcc,sketch -profiles none,gray", "4847c6691348189cf971daada5a56817f7f2d75ac9fe362c8b5a2f3fec9a29ee"},
	{"robustness -quick -trials 1 -systems pcc,sketch -profiles none,gray -json", "3ad04077c6db66a4bd691470ebc6b12aa7dd9bc9dcd46d48075d0a9beceae304"},
}

// TestSubcommandsPinned pins every subcommand's stdout to the digest its
// standalone binary printed.
func TestSubcommandsPinned(t *testing.T) {
	for _, p := range stdoutPins {
		t.Run(p.args, func(t *testing.T) {
			t.Parallel()
			checkPin(t, p.args, p.sha)
		})
	}
}

func checkPin(t *testing.T, args, want string) {
	t.Helper()
	stdout, stderr, code := run(t, strings.Fields(args)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	checkDigest(t, "stdout", stdout, want)
}

func checkDigest(t *testing.T, what string, b []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s digest %s, want %s\n%s", what, got, want, b)
	}
}

// TestTracePinned pins the audited blink-fig2 run's stdout and its JSONL
// selector trace. The subtest is named for the engine's event queue, the
// 4-ary heap.
func TestTracePinned(t *testing.T) {
	t.Parallel()
	t.Run("heap", func(t *testing.T) {
		trace := t.TempDir() + "/trace.jsonl"
		stdout, stderr, code := run(t,
			"blink-fig2", "-runs", "4", "-duration", "120", "-flows", "400", "-meandur", "6.35", "-audit", "-trace", trace)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr)
		}
		checkDigest(t, "stdout", stdout, "ffd182c2de07192358d14fcb9b654b946b59442f883085493ed3cf6602831d50")
		events, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, "trace", events, "928bd2899ffb7dcc65bcacadbdb5a84c4f0a37121cf89b37a55da4a275f4b46b")
	})
}

// TestRejectsStrayArguments: an unknown subcommand or a leftover
// positional argument, in report mode or after a subcommand's flags,
// prints the usage with every subcommand to stderr and exits 2 without
// running anything.
func TestRejectsStrayArguments(t *testing.T) {
	for _, args := range []string{
		"typo",
		"-quick typo",
		"-quick blink-survey",
		"blink-survey extra",
		"pcc-oscillate -flows 1 extra",
		"dataplane-attacks -seed 2 dataplane-attacks",
		"blink-fig2 -runs 1 extra",
		"blink-pop -quick extra",
		"chaos-eval -quick extra",
		"robustness -quick extra",
		"advsearch -quick extra",
	} {
		t.Run(args, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := run(t, strings.Fields(args)...)
			if code != 2 || len(stdout) != 0 {
				t.Errorf("exit %d with %d stdout bytes, want exit 2 and none", code, len(stdout))
			}
			for name := range subcommands {
				if !bytes.Contains(stderr, []byte(name)) {
					t.Errorf("usage does not list %s:\n%s", name, stderr)
				}
			}
		})
	}
}

// TestCampaignSpecRejected: a campaign subcommand whose flags make a
// spec campaign.JobSpec.Canon rejects prints Canon's error under the
// subcommand's name and exits 2 without running anything.
func TestCampaignSpecRejected(t *testing.T) {
	for _, c := range []struct{ args, msg string }{
		{"advsearch -system bogus", `advsearch: campaign: adv job: unknown system "bogus"`},
		{"advsearch -guarded maybe", `advsearch: campaign: adv job: unknown guarded "maybe"`},
		{"advsearch -searcher grid", `advsearch: campaign: adv job: unknown searcher "grid"`},
		{"robustness -systems bogus", `robustness: campaign: robustness job: robustness: unknown system "bogus"`},
		{"chaos-eval -levels 1", "chaos-eval: campaign: chaos job needs levels >= 2, got 1"},
	} {
		t.Run(c.args, func(t *testing.T) {
			t.Parallel()
			stdout, stderr, code := run(t, strings.Fields(c.args)...)
			if code != 2 || len(stdout) != 0 {
				t.Errorf("exit %d with %d stdout bytes, want exit 2 and none", code, len(stdout))
			}
			if !bytes.HasPrefix(stderr, []byte(c.msg)) {
				t.Errorf("stderr %q, want prefix %q", stderr, c.msg)
			}
		})
	}
}

// TestProfilingFlagsTakeEffect: a subcommand accepts the report mode's
// profiling flags, and they write their profiles.
func TestProfilingFlagsTakeEffect(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.prof", dir+"/mem.prof"
	if _, stderr, code := run(t, "nethide-trace", "-cpuprofile", cpu, "-memprofile", mem); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
}
