package tcpflow

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// rtoPendingPinDigest is the sha256 of rtoPendingTrace, recorded while
// every RTO arm was its own engine event. It pins the engine's pending
// count, which the scenario quiescence oracle reads, across RTO arms that
// are superseded, cancelled by completion, and orphaned by Stop.
const rtoPendingPinDigest = "6608f397dd4919ed33c37e5d0da64080f2a68ba923f8c5a10ad26e9f98a9d9ca"

// rtoPendingTrace runs three flows through a path failure from 2 s to
// 12 s and samples Engine.Pending every 10 ms for 70 s: one AIMD flow
// completes after the repair (cancelling its timer), one paced flow is
// stopped at 9.05 s with a backed-off arm outstanding until ~30 s, and
// one AIMD bulk flow is stopped mid-flight at 20.5 s with per-segment
// arms outstanding. It returns every sample plus the three flows' final
// stats.
func rtoPendingTrace() string {
	nw, e1, e2, links := pair(1e6, 0.005, 16)
	done := Start(e1, e2, Config{Key: flowKey(e1, e2, 3000), TotalBytes: 400 * 1460, AIMD: true})
	paced := Start(e1, e2, Config{Key: flowKey(e1, e2, 3001), Pace: 40})
	bulk := Start(e1, e2, Config{Key: flowKey(e1, e2, 3002), AIMD: true})
	nw.FailLink(links[1], 2)
	nw.Engine().At(12, func() { links[1].SetUp(true) })
	nw.Engine().At(9.05, paced.Stop)
	nw.Engine().At(20.5, bulk.Stop)
	var out strings.Builder
	for i := 1; i <= 7000; i++ {
		nw.RunUntil(float64(i) / 100)
		fmt.Fprintf(&out, "%d %d\n", i, nw.Engine().Pending())
	}
	for _, s := range []*Sender{done, paced, bulk} {
		fmt.Fprintf(&out, "%+v\n", s.Stats())
	}
	return out.String()
}

func TestRTOPendingPinned(t *testing.T) {
	sum := sha256.Sum256([]byte(rtoPendingTrace()))
	if got := hex.EncodeToString(sum[:]); got != rtoPendingPinDigest {
		t.Fatalf("RTO pending trace digest %s, pinned %s", got, rtoPendingPinDigest)
	}
}
