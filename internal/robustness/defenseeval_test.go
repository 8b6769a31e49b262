package robustness_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dui/internal/robustness"
)

// TestDefenseEvalPinned pins the E8 report (cmd/robustness -defense-eval)
// at seed 1 to the digest of the report as the standalone defense-eval
// command printed it, at one and two section workers. Any change to a
// guard's verdict, a reason string, or one of the three §5 simulations
// fails here.
func TestDefenseEvalPinned(t *testing.T) {
	const want = "9eacd12f1bd11cf6fabf9951194a58922763a48d8ae6dd426bc5779257fa3c95"
	for _, workers := range []int{1, 2} {
		var b bytes.Buffer
		robustness.WriteDefenseEval(&b, 1, workers)
		sum := sha256.Sum256(b.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("workers=%d: report digest %s, want %s\n%s", workers, got, want, b.String())
		}
	}
}
