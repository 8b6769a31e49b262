package tcpflow

import "testing"

// TestRTOWakesPerPeriodNotPerSegment checks that a bulk AIMD transfer
// runs its RTO callback about once per RTO period, not once per arm:
// every segment sent and every ACK re-arms the timer, but a superseded
// arm is never queued, so the callback count follows the transfer time
// over the minimum RTO (here the RTO itself), whatever the segment count.
// A wake-up can land just before the live arm's key, so the bound allows
// two per period.
func TestRTOWakesPerPeriodNotPerSegment(t *testing.T) {
	nw, e1, e2, _ := pair(10e6, 0.005, 0)
	s := Start(e1, e2, Config{Key: flowKey(e1, e2, 1100), TotalBytes: 4000 * 1460, AIMD: true})
	wakes := 0
	fire := s.rtoFn
	s.rtoFn = func() { wakes++; fire() }
	nw.RunUntil(60)
	st := s.Stats()
	if !st.Completed || st.Retransmissions != 0 {
		t.Fatalf("transfer did not complete cleanly: %+v", st)
	}
	periods := st.CompletionTime / 0.2 // rtoMin
	t.Logf("%d segments, %d RTO callbacks over %.3g s (%.1f minimum RTO periods)", st.SentSegments, wakes, st.CompletionTime, periods)
	if float64(wakes) > 2*periods {
		t.Fatalf("%d RTO callbacks for %d segments over %.1f minimum RTO periods", wakes, st.SentSegments, periods)
	}
}
